// Fuzz target: the strict fault-schedule parser (read_fault_csv). Accepted
// schedules must satisfy the documented invariants — nondecreasing times,
// each kind's node-xor-edge targeting, probabilities within [0, 1] — and
// must round-trip through write_fault_csv to an identical schedule (the
// format is ppm-exact by construction).

#include <cstdint>
#include <cstdlib>

#include "fuzz_common.hpp"
#include "workload/trace_io.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string& path = spider_fuzz::dump_input(data, size, ".csv");
  spider_fuzz::expect_parse_or_reject([&] {
    const std::vector<spider::FaultEvent> faults =
        spider::read_fault_csv(path);
    spider::TimePoint last = 0;
    for (const spider::FaultEvent& f : faults) {
      if (f.at < last) std::abort();  // times must be nondecreasing
      last = f.at;
      if (f.probability < 0.0 || f.probability > 1.0) std::abort();
      const bool node_kind = f.kind == spider::FaultEvent::Kind::kNodeCrash ||
                             f.kind == spider::FaultEvent::Kind::kNodeRecover ||
                             f.kind == spider::FaultEvent::Kind::kNodeStall ||
                             f.kind == spider::FaultEvent::Kind::kGrief;
      if (node_kind && (f.node == spider::kInvalidNode ||
                        f.edge != spider::kInvalidEdge))
        std::abort();  // node kinds target a node, never an edge
      if (!node_kind && (f.edge == spider::kInvalidEdge ||
                         f.node != spider::kInvalidNode))
        std::abort();  // channel kinds target an edge, never a node
    }
    // Round-trip oracle: write the accepted schedule back out and re-read.
    const std::string rt = path + ".rt";
    spider::write_fault_csv(rt, faults);
    const std::vector<spider::FaultEvent> again = spider::read_fault_csv(rt);
    std::remove(rt.c_str());
    if (again.size() != faults.size()) std::abort();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (faults[i].at != again[i].at || faults[i].kind != again[i].kind ||
          faults[i].node != again[i].node || faults[i].edge != again[i].edge ||
          faults[i].duration != again[i].duration)
        std::abort();
    }
  });
  return 0;
}
