#include "netlist/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace afp::netlist {

std::string to_string(DeviceType t) {
  switch (t) {
    case DeviceType::kNmos: return "nmos";
    case DeviceType::kPmos: return "pmos";
    case DeviceType::kResistor: return "resistor";
    case DeviceType::kCapacitor: return "capacitor";
  }
  return "?";
}

double Device::area_um2() const {
  if (is_mos()) {
    // Active area plus diffusion/contact overhead per finger: a simple
    // footprint model with 0.5um diffusion extension per finger edge.
    const double stripe_w = width_um / std::max(1, fingers);
    const double fin_h = stripe_w;
    const double fin_w = length_um + 1.0;  // gate + 2 x 0.5um diffusion
    return fin_h * fin_w * std::max(1, fingers);
  }
  if (type == DeviceType::kResistor) {
    // Poly resistor: ~1 kOhm per square at 0.5um width.
    const double squares = std::max(1.0, value / 1000.0);
    return squares * 0.5 * 0.5 + 1.0;
  }
  // MIM cap: ~2 fF/um^2.
  return std::max(1.0, value * 1e15 / 2.0);
}

bool Net::is_supply() const {
  const std::string u = [this] {
    std::string s = name;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return s;
  }();
  return u == "VDD" || u == "VSS" || u == "GND" || u == "VDDA" || u == "VSSA" ||
         u == "AVDD" || u == "AVSS";
}

int Netlist::add_device(Device d) {
  if (d.is_mos() && d.terminals.size() != 4) {
    throw std::invalid_argument("MOS device " + d.name +
                                " needs 4 terminals");
  }
  if (!d.is_mos() && d.terminals.size() != 2) {
    throw std::invalid_argument("2-terminal device " + d.name +
                                " needs 2 terminals");
  }
  devices_.push_back(std::move(d));
  return static_cast<int>(devices_.size()) - 1;
}

std::vector<Net> Netlist::nets() const {
  std::vector<Net> out;
  std::map<std::string, int> index;
  for (int di = 0; di < num_devices(); ++di) {
    const Device& d = devices_[static_cast<std::size_t>(di)];
    for (int ti = 0; ti < static_cast<int>(d.terminals.size()); ++ti) {
      const std::string& nn = d.terminals[static_cast<std::size_t>(ti)];
      auto it = index.find(nn);
      if (it == index.end()) {
        index.emplace(nn, static_cast<int>(out.size()));
        out.push_back({nn, {{di, ti}}});
      } else {
        out[static_cast<std::size_t>(it->second)].pins.emplace_back(di, ti);
      }
    }
  }
  return out;
}

std::vector<int> Netlist::devices_on_net(const std::string& net) const {
  std::vector<int> out;
  for (int di = 0; di < num_devices(); ++di) {
    const Device& d = devices_[static_cast<std::size_t>(di)];
    if (std::find(d.terminals.begin(), d.terminals.end(), net) !=
        d.terminals.end()) {
      out.push_back(di);
    }
  }
  return out;
}

double Netlist::total_device_area() const {
  double a = 0.0;
  for (const Device& d : devices_) a += d.area_um2();
  return a;
}

std::string Netlist::to_spice() const {
  // Shortest decimal text that reads back as exactly `v`.
  auto exact = [](double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  std::ostringstream os;
  os << "* " << name_ << '\n';
  os << ".subckt " << name_;
  for (const auto& p : ports_) os << ' ' << p;
  os << '\n';
  for (const Device& d : devices_) {
    const char card = d.is_mos()                          ? 'M'
                      : d.type == DeviceType::kResistor ? 'R'
                                                        : 'C';
    if (d.name.empty() ||
        std::toupper(static_cast<unsigned char>(d.name[0])) != card) {
      throw std::invalid_argument("device '" + d.name +
                                  "' does not start with its SPICE card "
                                  "letter '" + card + "'");
    }
    os << d.name << ' ' << d.terminals[0] << ' ' << d.terminals[1];
    if (d.is_mos()) {
      os << ' ' << d.terminals[2] << ' ' << d.terminals[3] << ' '
         << (d.type == DeviceType::kPmos ? "pmos" : "nmos")
         << " W=" << exact(d.width_um) << " L=" << exact(d.length_um)
         << " NF=" << d.fingers;
    } else {
      os << ' ' << exact(d.value);
    }
    os << '\n';
  }
  os << ".ends\n";
  return os.str();
}

}  // namespace afp::netlist
