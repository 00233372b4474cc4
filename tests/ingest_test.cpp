// Ingest subsystem tests.
//
//   1. Malformed-deck suite: every rejected construct must surface as a
//      structured ParseError carrying file:line — never a crash, never a
//      silent partial netlist.
//   2. Subcircuit-expansion goldens: hierarchical decks elaborate with
//      deterministic name prefixing, port-to-actual net mapping, global
//      supplies and global -> subckt-default -> X-override param scoping.
//      Netlist::to_spice round-trips through parse_deck exactly for every
//      registry circuit and 300-block scenario.
//   3. Scenario-generator property suite (200 seeded specs across all
//      four families): generation is a pure function of the spec, the
//      recognized block count and names match the generator's own
//      accounting exactly, and the constraint overlay is satisfiable —
//      shown constructively by an analytic witness placement.
#include <gtest/gtest.h>

#include <set>

#include "floorplan/instance.hpp"
#include "ingest/scenario.hpp"
#include "ingest/spice_parser.hpp"
#include "netlist/library.hpp"

namespace afp {
namespace {

// --------------------------------------------------------- deck parsing ---

netlist::Netlist parse(const std::string& text,
                       const ingest::ParseOptions& opts = {}) {
  return ingest::parse_deck(text, "deck.sp", opts);
}

/// Expects `text` to be rejected with a diagnostic anchored at `line` whose
/// message contains `needle`.
void expect_error(const std::string& text, int line,
                  const std::string& needle,
                  const ingest::ParseOptions& opts = {}) {
  try {
    parse(text, opts);
    FAIL() << "deck accepted; expected error containing '" << needle << "'";
  } catch (const ingest::ParseError& e) {
    EXPECT_EQ(e.file(), "deck.sp") << e.what();
    EXPECT_EQ(e.line(), line) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(SpiceParser, TruncatedSubcktIsAnError) {
  expect_error(".subckt stage in out\nM1 out in VSS VSS nch w=2u\n", 1,
               "unterminated .subckt 'stage'");
}

TEST(SpiceParser, CyclicInstantiationIsAnError) {
  const std::string deck =
      ".subckt a x\n"
      "XB x b\n"
      ".ends\n"
      ".subckt b x\n"
      "XA x a\n"
      ".ends\n"
      "XTOP n1 a\n";
  try {
    parse(deck);
    FAIL() << "cyclic deck accepted";
  } catch (const ingest::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("recursive"), std::string::npos)
        << e.what();
  }
}

TEST(SpiceParser, DepthCapStopsDeepHierarchies) {
  // A 5-deep linear chain with max_depth 3: no cycle, still rejected.
  std::string deck;
  for (int i = 0; i < 5; ++i) {
    deck += ".subckt s" + std::to_string(i) + " p\n";
    if (i + 1 < 5) deck += "X p s" + std::to_string(i + 1) + "\n";
    deck += "M1 p p VSS VSS nch w=1u\n.ends\n";
  }
  deck += "XT n s0\n";
  ingest::ParseOptions opts;
  opts.max_depth = 3;
  EXPECT_THROW(parse(deck, opts), ingest::ParseError);
}

TEST(SpiceParser, OverlongLineIsAnError) {
  ingest::ParseOptions opts;
  opts.max_line_bytes = 64;
  expect_error("M1 d g s b nch w=1u " + std::string(100, ' ') + "l=1u\n", 1,
               "line exceeds", opts);
}

TEST(SpiceParser, BadDeviceParametersAreErrors) {
  expect_error("M1 d g s b nch w=-2u\n", 1, "bad W/L/NF on 'M1'");
  expect_error("M1 d g s b nch w=1u nf=0\n", 1, "bad W/L/NF on 'M1'");
  expect_error("R1 a b 0\n", 1, "non-positive");
  expect_error("M1 d g s\n", 1, "needs <d> <g> <s> <b> <model>");
  expect_error("M1 d g s b nch w=1u stray\n", 1,
               "positional field 'stray' after parameter assignments");
  expect_error(".subckt x\nQ1 a b c\n.ends\n", 2, "BJT card 'Q1' needs");
}

TEST(SpiceParser, UnknownDirectiveIsAnError) {
  expect_error("M1 d g s b nch w=1u\n.frobnicate all\n", 2,
               "unsupported directive '.frobnicate'");
}

TEST(SpiceParser, DuplicateDeviceNameIsAnError) {
  EXPECT_THROW(parse("M1 d g s b nch w=1u\nM1 e f h b nch w=1u\n"),
               ingest::ParseError);
}

TEST(SpiceParser, AmbiguousTopCellIsAnError) {
  // Two root subckts, no top-level cards: auto-selection cannot choose.
  const std::string deck =
      ".subckt a x\nM1 x x VSS VSS nch w=1u\n.ends\n"
      ".subckt b x\nM1 x x VSS VSS nch w=1u\n.ends\n";
  try {
    parse(deck);
    FAIL() << "ambiguous deck accepted";
  } catch (const ingest::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("ambiguous top"), std::string::npos)
        << e.what();
  }
  // An explicit top disambiguates the same deck.
  ingest::ParseOptions opts;
  opts.top = "b";
  const auto nl = parse(deck, opts);
  EXPECT_EQ(nl.num_devices(), 1);
}

TEST(SpiceParser, UnknownSubcircuitIsAnError) {
  EXPECT_THROW(parse("X1 a b nosuch\n"), ingest::ParseError);
}

TEST(SpiceParser, DanglingContinuationIsAnError) {
  expect_error("+ w=1u\n", 1, "continuation");
}

TEST(SpiceParser, MissingFileIsALineZeroError) {
  try {
    ingest::parse_file("/nonexistent/deck.sp");
    FAIL() << "missing file accepted";
  } catch (const ingest::ParseError& e) {
    EXPECT_EQ(e.line(), 0);
  }
}

// ---------------------------------------------------- expansion goldens ---

TEST(SpiceParser, ExpansionPrefixesMapsAndScopesParams) {
  const std::string deck =
      ".param wg=4u\n"
      ".subckt inv in out w=2u\n"
      "MP out in VDD VDD pch w={2*w} l=0.3u\n"
      "MN out in VSS VSS nch w={w} l=0.3u\n"
      ".ends\n"
      "X1 a y inv w=wg\n"
      "X2 y z inv\n"
      "M9 z a VSS VSS nch w=1u\n";
  const auto nl = parse(deck);
  ASSERT_EQ(nl.num_devices(), 5);

  // Depth-first deck order, instance-prefixed clone names.
  EXPECT_EQ(nl.device(0).name, "X1.MP");
  EXPECT_EQ(nl.device(1).name, "X1.MN");
  EXPECT_EQ(nl.device(2).name, "X2.MP");
  EXPECT_EQ(nl.device(3).name, "X2.MN");
  EXPECT_EQ(nl.device(4).name, "M9");

  // Port-to-actual mapping; supplies stay global (never prefixed).
  EXPECT_EQ(nl.device(0).drain(), "y");
  EXPECT_EQ(nl.device(0).gate(), "a");
  EXPECT_EQ(nl.device(0).source(), "VDD");
  EXPECT_EQ(nl.device(2).drain(), "z");
  EXPECT_EQ(nl.device(2).gate(), "y");

  // Param scoping: X1 overrides w with the global wg; X2 takes the subckt
  // default.  The {2*w} arithmetic sees the effective scope value.
  EXPECT_DOUBLE_EQ(nl.device(0).width_um, 8.0);  // X1.MP: 2*wg
  EXPECT_DOUBLE_EQ(nl.device(1).width_um, 4.0);  // X1.MN: wg
  EXPECT_DOUBLE_EQ(nl.device(2).width_um, 4.0);  // X2.MP: 2*default
  EXPECT_DOUBLE_EQ(nl.device(3).width_um, 2.0);  // X2.MN: default
}

TEST(SpiceParser, InternalNetsArePrefixedPerInstance) {
  const std::string deck =
      ".subckt buf in out\n"
      "MN1 mid in VSS VSS nch w=1u\n"
      "MN2 out mid VSS VSS nch w=1u\n"
      ".ends\n"
      "X3 p q buf\n"
      "X4 q r buf\n";
  const auto nl = parse(deck);
  ASSERT_EQ(nl.num_devices(), 4);
  EXPECT_EQ(nl.device(0).drain(), "X3.mid");
  EXPECT_EQ(nl.device(1).gate(), "X3.mid");
  EXPECT_EQ(nl.device(2).drain(), "X4.mid");  // no cross-instance sharing
}

TEST(SpiceParser, TopCellPortsKeepTheirSpelling) {
  const std::string deck =
      ".subckt ota VDD VSS InP Out\n"
      "X1 InP Out stage\n"
      ".ends\n"
      ".subckt stage IN OUT\n"
      "M1 out in VSS VSS nch w=1u\n"
      ".ends\n";
  const auto nl = parse(deck);
  EXPECT_EQ(nl.name(), "ota");
  EXPECT_EQ(nl.ports(),
            (std::vector<std::string>{"VDD", "VSS", "InP", "Out"}));
  // Formals still bind case-insensitively inside the hierarchy.
  ASSERT_EQ(nl.num_devices(), 1);
  EXPECT_EQ(nl.device(0).drain(), "Out");
  EXPECT_EQ(nl.device(0).gate(), "InP");
}

// ------------------------------------------------ to_spice round trip ---

/// Netlist::to_spice -> parse_deck must reproduce the netlist exactly:
/// names, ports, device names/types/terminals and every card value bitwise.
void expect_round_trip(const netlist::Netlist& orig) {
  const std::string text = orig.to_spice();
  const netlist::Netlist back = parse(text);
  EXPECT_EQ(back.name(), orig.name());
  EXPECT_EQ(back.ports(), orig.ports()) << orig.name();
  ASSERT_EQ(back.num_devices(), orig.num_devices()) << orig.name();
  for (int i = 0; i < orig.num_devices(); ++i) {
    const netlist::Device& a = orig.device(i);
    const netlist::Device& b = back.device(i);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.type, a.type) << a.name;
    EXPECT_EQ(b.terminals, a.terminals) << a.name;
    if (a.is_mos()) {  // the fields a MOS card carries
      EXPECT_EQ(b.width_um, a.width_um) << a.name;
      EXPECT_EQ(b.length_um, a.length_um) << a.name;
      EXPECT_EQ(b.fingers, a.fingers) << a.name;
    } else {  // the one value an R/C card carries
      EXPECT_EQ(b.value, a.value) << a.name;
    }
  }
  // parse_file reads the "* <name>" first line as the deck's title.
  EXPECT_EQ(text.rfind("* " + orig.name() + "\n", 0), 0u);
}

TEST(SpiceParser, ToSpiceRoundTripsRegistryCircuitsExactly) {
  for (const auto& entry : netlist::circuit_registry()) {
    SCOPED_TRACE(entry.name);
    expect_round_trip(entry.make());
  }
}

TEST(SpiceParser, ToSpiceRoundTripsLargeScenariosExactly) {
  for (const char* family : {"ota", "bias", "latch", "driver"}) {
    SCOPED_TRACE(family);
    expect_round_trip(
        ingest::make_scenario(
            ingest::ScenarioSpec::parse(std::string(family) + ":300:1"))
            .netlist);
  }
}

TEST(SpiceParser, ToSpiceRejectsNamesWithoutTheirCardLetter) {
  netlist::Netlist nl("bad");
  nl.add_device({"1", netlist::DeviceType::kResistor, {"a", "b"}, 0, 0, 1,
                 1000.0});
  EXPECT_THROW((void)nl.to_spice(), std::invalid_argument);
}

// ------------------------------------------- scenario generator properties ---

/// Per-block shape choice for the witness: the flattest candidate.
/// Identical twin blocks carry identical candidate arrays, so the choice is
/// congruent across every symmetry pair and matching group.
floorplan::Shape flattest(const floorplan::Block& b) {
  floorplan::Shape s = b.shapes[0];
  for (const auto& cand : b.shapes) {
    if (cand.h < s.h) s = cand;
  }
  return s;
}

/// Analytic witness placement for a generated constraint overlay:
///   * pre-placed anchors at their pinned corners (below the keep-out),
///   * all symmetry pairs nested around a shared vertical axis (x = 0) in
///     one row above the keep-out strip,
///   * every remaining block in a second row above that — a single common
///     bottom edge satisfies the alignment group, congruent shapes satisfy
///     matching.
/// Returns one rect per block; overlap-free by construction (checked).
std::vector<geom::Rect> witness_placement(const floorplan::Instance& inst) {
  const auto& cs = inst.constraints;
  const int n = inst.num_blocks();
  std::vector<floorplan::Shape> sh(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sh[static_cast<std::size_t>(i)] =
        flattest(inst.blocks[static_cast<std::size_t>(i)]);
  }
  std::vector<geom::Rect> r(static_cast<std::size_t>(n));
  std::vector<char> placed(static_cast<std::size_t>(n), 0);
  const double gap = 1.0;

  double strip_top = 0.0;
  for (const auto& ko : cs.keep_outs) {
    strip_top = std::max(strip_top, ko.region.y + ko.region.h);
  }

  for (const auto& pp : cs.preplaced) {
    const auto& s = sh[static_cast<std::size_t>(pp.block)];
    r[static_cast<std::size_t>(pp.block)] = {pp.x, pp.y, s.w, s.h};
    placed[static_cast<std::size_t>(pp.block)] = 1;
  }

  const double y1 = strip_top + gap;
  double row1_h = 0.0;
  double off = gap;
  for (const auto& sp : cs.sym_pairs) {
    const auto& sa = sh[static_cast<std::size_t>(sp.a)];
    const auto& sb = sh[static_cast<std::size_t>(sp.b)];
    r[static_cast<std::size_t>(sp.a)] = {-off - sa.w, y1, sa.w, sa.h};
    r[static_cast<std::size_t>(sp.b)] = {off, y1, sb.w, sb.h};
    placed[static_cast<std::size_t>(sp.a)] = 1;
    placed[static_cast<std::size_t>(sp.b)] = 1;
    off += std::max(sa.w, sb.w) + gap;
    row1_h = std::max(row1_h, std::max(sa.h, sb.h));
  }

  const double y2 = y1 + row1_h + gap;
  double x = 0.0;
  for (int i = 0; i < n; ++i) {
    if (placed[static_cast<std::size_t>(i)]) continue;
    const auto& s = sh[static_cast<std::size_t>(i)];
    r[static_cast<std::size_t>(i)] = {x, y2, s.w, s.h};
    x += s.w + gap;
  }
  return r;
}

bool any_overlap(const std::vector<geom::Rect>& rects) {
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      if (rects[i].overlaps(rects[j])) return true;
    }
  }
  return false;
}

/// Netlist equality at device granularity (terminals included).
void expect_same_netlist(const netlist::Netlist& a, const netlist::Netlist& b) {
  ASSERT_EQ(a.num_devices(), b.num_devices());
  for (int i = 0; i < a.num_devices(); ++i) {
    const auto& da = a.device(i);
    const auto& db = b.device(i);
    EXPECT_EQ(da.name, db.name);
    EXPECT_EQ(da.type, db.type);
    EXPECT_EQ(da.terminals, db.terminals);
    EXPECT_DOUBLE_EQ(da.width_um, db.width_um);
    EXPECT_DOUBLE_EQ(da.length_um, db.length_um);
    EXPECT_EQ(da.fingers, db.fingers);
    EXPECT_DOUBLE_EQ(da.value, db.value);
  }
}

TEST(ScenarioGenerator, TwoHundredSeedPropertySweep) {
  const int kSizes[] = {10, 13, 24, 37, 58, 90};
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (const auto& family : ingest::scenario_families()) {
      ingest::ScenarioSpec spec;
      spec.family = family;
      spec.size = kSizes[(seed + checked) % (sizeof(kSizes) / sizeof(int))];
      spec.seed = seed;
      SCOPED_TRACE(spec.to_string());
      const auto sc = ingest::make_scenario(spec);
      ++checked;

      // Spec round-trip through the canonical string form.
      const auto reparsed = ingest::ScenarioSpec::parse(spec.to_string());
      EXPECT_EQ(reparsed.family, spec.family);
      EXPECT_EQ(reparsed.size, spec.size);
      EXPECT_EQ(reparsed.seed, spec.seed);

      // Pure function of the spec: regeneration is identical.
      if (seed % 10 == 0) {
        const auto again = ingest::make_scenario(spec);
        expect_same_netlist(sc.netlist, again.netlist);
        ASSERT_EQ(sc.block_names, again.block_names);
      }

      // Exact block accounting: recognition yields precisely the blocks the
      // generator predicted, by name.
      auto g = graphir::build_graph(sc.netlist,
                                    structrec::recognize(sc.netlist));
      ASSERT_EQ(g.num_nodes(), spec.size);
      std::set<std::string> predicted(sc.block_names.begin(),
                                      sc.block_names.end());
      ASSERT_EQ(predicted.size(), sc.block_names.size());
      for (const auto& node : g.nodes) {
        EXPECT_EQ(predicted.count(node.name), 1u)
            << "unpredicted block " << node.name;
      }

      // Constraint satisfiability: the witness placement satisfies every
      // overlay item and is overlap-free.
      graphir::apply_constraints(g, graphir::resolve(sc.constraints, g));
      const auto inst = floorplan::make_instance(g);
      EXPECT_FALSE(inst.constraints.empty());
      const auto rects = witness_placement(inst);
      int items = 0;
      const int violated =
          floorplan::constraint_violations(inst, rects, 1e-6, &items);
      EXPECT_EQ(violated, 0) << violated << "/" << items << " items violated";
      EXPECT_GT(items, 0);
      EXPECT_FALSE(any_overlap(rects));
    }
  }
  EXPECT_EQ(checked, 200);
}

TEST(ScenarioGenerator, SuffixKeysParseAndApply) {
  const auto spec = ingest::ScenarioSpec::parse("latch:20:7:ar=1.5:ws=0.2");
  EXPECT_EQ(spec.family, "latch");
  EXPECT_EQ(spec.size, 20);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.aspect, 1.5);
  EXPECT_DOUBLE_EQ(spec.whitespace, 0.2);
  EXPECT_TRUE(spec.constrained);

  const auto sc = ingest::make_scenario(spec);
  EXPECT_TRUE(sc.constraints.target_aspect.has_value());
  EXPECT_DOUBLE_EQ(*sc.constraints.target_aspect, 1.5);
  EXPECT_DOUBLE_EQ(sc.constraints.extra_whitespace, 0.2);

  const auto plain = ingest::make_scenario(
      ingest::ScenarioSpec::parse("ota:12:3:plain=1"));
  EXPECT_TRUE(plain.constraints.sym_pairs.empty());
  EXPECT_TRUE(plain.constraints.preplaced.empty());
  EXPECT_TRUE(plain.constraints.keep_outs.empty());
}

TEST(ScenarioGenerator, MalformedSpecsAreRejected) {
  EXPECT_THROW(ingest::ScenarioSpec::parse("warp_core:10:1"),
               std::invalid_argument);
  EXPECT_THROW(ingest::ScenarioSpec::parse("ota:2:1"), std::invalid_argument);
  EXPECT_THROW(ingest::ScenarioSpec::parse("ota:9001:1:ar=-2"),
               std::invalid_argument);
  EXPECT_THROW(ingest::ScenarioSpec::parse("ota:10:1:bogus=3"),
               std::invalid_argument);
  EXPECT_THROW(ingest::ScenarioSpec::parse("ota"), std::invalid_argument);
  EXPECT_THROW(ingest::ScenarioSpec::parse("ota:ten:1"),
               std::invalid_argument);
}

}  // namespace
}  // namespace afp
