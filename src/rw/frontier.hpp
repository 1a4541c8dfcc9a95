// The search frontier shared by the Wing & Gong linearizability checkers
// (check_linearizable in rw/spec.hpp, check_linearizable_queue in
// rw/queue.hpp).
//
// A depth-first Wing & Gong search linearizes one operation per step. Each
// search state asks two questions of the set of ops still to linearize:
//
//  * which ops may go next: those whose invocation follows no remaining
//    op's response, i.e. inv <= min(res over remaining);
//  * what is an exact memoization key for the set already linearized.
//
// SearchFrontier answers both in time proportional to the window of
// overlapping ops rather than to the history length n:
//
//  * Remaining ops sit in a doubly linked list in (inv, index) order.
//    take() unlinks an op and restore() relinks it (dancing links), so the
//    two must nest like the search's descent and backtrack.
//  * Candidates are a prefix of that list. Scanning from the head with a
//    running min(res), the first op whose inv exceeds it ends the scan: it
//    and every later op have res >= inv > the minimum, so none can lower
//    it. With one open op per process the scan touches about one op per
//    process.
//  * The key is the list position of the first remaining op followed by
//    the done bits from there to the deepest linearized position. Every
//    position before the first remaining op is done and every position
//    after the deepest done one is not, so the encoding is canonical and
//    two keys are equal iff the linearized sets are. Pruning on it is
//    exact; no hash of the set stands in for the set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hpp"

namespace psc {

class SearchFrontier {
 public:
  // Op is any type with Time members `inv` and `res` (inv <= res).
  template <class Op>
  explicit SearchFrontier(const std::vector<Op>& ops) {
    std::vector<Time> inv, res;
    inv.reserve(ops.size());
    res.reserve(ops.size());
    for (const auto& op : ops) {
      inv.push_back(op.inv);
      res.push_back(op.res);
    }
    init(inv, res);
  }

  bool empty() const { return next_[sentinel()] == sentinel(); }

  // Appends to `out` the index (into the constructor's ops) of every op
  // that may be linearized next, in ascending index order.
  void candidates(std::vector<std::uint32_t>& out) const;

  // Marks op k linearized. restore(k) undoes the most recent take(k).
  void take(std::uint32_t k);
  void restore(std::uint32_t k);

  // Appends the exact encoding of the linearized set described above:
  // the first remaining position and the number of 64-bit bit words (one
  // 32-bit word each), then the bit words. Its size is fixed by the key
  // itself, so callers may append further state after it.
  void append_key(std::string& key) const;

 private:
  void init(const std::vector<Time>& inv, const std::vector<Time>& res);
  std::uint32_t sentinel() const {
    return static_cast<std::uint32_t>(inv_.size());
  }
  bool done(std::uint32_t p) const { return (done_[p / 64] >> (p % 64)) & 1; }

  // Indexed by list position, i.e. rank in (inv, index) order.
  std::vector<Time> inv_;
  std::vector<Time> res_;
  std::vector<std::uint32_t> index_;  // position -> op index
  std::vector<std::uint32_t> next_;   // n + 1 entries; entry n is the
  std::vector<std::uint32_t> prev_;   // list's sentinel
  std::vector<std::uint64_t> done_;   // bit per position, plus a zero word
  std::vector<std::uint32_t> position_;  // op index -> position
  // One past the deepest done position, after each take() so far; the
  // bottom entry (0) stands for the empty set.
  std::vector<std::uint32_t> end_;
};

}  // namespace psc
