// Transistor-level netlist representation.  Netlist::to_spice writes a
// SPICE deck that ingest::parse_deck (src/ingest) reads back exactly:
//
//   * <name>
//   .subckt <name> <port> ...
//   <M-name> <d> <g> <s> <b> <nmos|pmos> W=<um> L=<um> NF=<int>
//   <R-name> <a> <b> <ohms>
//   <C-name> <a> <b> <farads>
//   .ends
//
// Device names are written verbatim, so each must start with its card
// letter (M, R or C); values are written at full precision.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace afp::netlist {

enum class DeviceType { kNmos, kPmos, kResistor, kCapacitor };

/// Printable device-type name ("nmos", "pmos", ...).
std::string to_string(DeviceType t);

struct Device {
  std::string name;
  DeviceType type = DeviceType::kNmos;
  /// Connected net names; MOS: {drain, gate, source, bulk}, R/C: {a, b}.
  std::vector<std::string> terminals;
  double width_um = 1.0;   ///< MOS gate width (total, all fingers)
  double length_um = 0.18; ///< MOS gate length
  int fingers = 1;         ///< MOS finger / stripe count
  double value = 0.0;      ///< R: ohms, C: farads

  bool is_mos() const {
    return type == DeviceType::kNmos || type == DeviceType::kPmos;
  }
  /// Approximate layout area of the device in um^2 (device footprint model:
  /// MOS active area plus per-finger diffusion overhead; R/C area scales
  /// with value).
  double area_um2() const;

  std::string drain() const { return terminals.at(0); }
  std::string gate() const { return terminals.at(1); }
  std::string source() const { return terminals.at(2); }
  std::string bulk() const { return terminals.at(3); }
};

/// A named net with the list of (device index, terminal index) pins.
struct Net {
  std::string name;
  std::vector<std::pair<int, int>> pins;

  bool is_supply() const;  ///< VDD/VSS/GND-style names
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  int add_device(Device d);
  const std::vector<Device>& devices() const { return devices_; }
  const Device& device(int i) const { return devices_.at(static_cast<std::size_t>(i)); }
  int num_devices() const { return static_cast<int>(devices_.size()); }

  const std::vector<std::string>& ports() const { return ports_; }
  void set_ports(std::vector<std::string> p) { ports_ = std::move(p); }

  /// Nets derived from device terminals (stable order of first appearance).
  std::vector<Net> nets() const;

  /// Devices attached to `net` (indices).
  std::vector<int> devices_on_net(const std::string& net) const;

  /// Total device area in um^2.
  double total_device_area() const;

  /// Serializes to a SPICE deck (see the file comment).  Throws
  /// std::invalid_argument when a device name does not start with its card
  /// letter.
  std::string to_spice() const;

 private:
  std::string name_ = "top";
  std::vector<std::string> ports_;
  std::vector<Device> devices_;
};

}  // namespace afp::netlist
