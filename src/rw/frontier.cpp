#include "rw/frontier.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.hpp"

namespace psc {

void SearchFrontier::init(const std::vector<Time>& inv,
                          const std::vector<Time>& res) {
  PSC_CHECK(inv.size() < std::numeric_limits<std::uint32_t>::max(),
            "history too long for the search frontier: " << inv.size());
  const auto n = static_cast<std::uint32_t>(inv.size());
  index_.resize(n);
  std::iota(index_.begin(), index_.end(), 0u);
  std::stable_sort(index_.begin(), index_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return inv[a] < inv[b];
                   });
  inv_.resize(n);
  res_.resize(n);
  position_.resize(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    inv_[p] = inv[index_[p]];
    res_[p] = res[index_[p]];
    position_[index_[p]] = p;
  }
  next_.resize(n + 1);
  prev_.resize(n + 1);
  for (std::uint32_t p = 0; p <= n; ++p) {
    next_[p] = p == n ? 0 : p + 1;
    prev_[p] = p == 0 ? n : p - 1;
  }
  done_.assign(n / 64 + 2, 0);
  end_.assign(1, 0);
}

void SearchFrontier::candidates(std::vector<std::uint32_t>& out) const {
  const std::uint32_t s = sentinel();
  const std::size_t begin = out.size();
  Time min_res = kTimeMax;
  // Every scanned op is a candidate: min_res ends as the minimum over all
  // remaining ops, and an op scanned later cannot bring it below an earlier
  // op's inv, since its res >= its inv >= the earlier inv.
  for (std::uint32_t p = next_[s]; p != s && inv_[p] <= min_res;
       p = next_[p]) {
    min_res = std::min(min_res, res_[p]);
    out.push_back(index_[p]);
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
}

void SearchFrontier::take(std::uint32_t k) {
  const std::uint32_t p = position_[k];
  next_[prev_[p]] = next_[p];
  prev_[next_[p]] = prev_[p];
  done_[p / 64] |= std::uint64_t{1} << (p % 64);
  end_.push_back(std::max(end_.back(), p + 1));
}

void SearchFrontier::restore(std::uint32_t k) {
  const std::uint32_t p = position_[k];
  PSC_CHECK(end_.size() > 1 && done(p), "restore without a matching take");
  end_.pop_back();
  done_[p / 64] &= ~(std::uint64_t{1} << (p % 64));
  next_[prev_[p]] = p;
  prev_[next_[p]] = p;
}

void SearchFrontier::append_key(std::string& key) const {
  const std::uint32_t first = next_[sentinel()];
  const std::uint32_t end = end_.back();
  const std::uint32_t words = end > first ? (end - first + 63) / 64 : 0;
  key.append(reinterpret_cast<const char*>(&first), sizeof(first));
  key.append(reinterpret_cast<const char*>(&words), sizeof(words));
  // Bit i of word w is position first + 64 w + i. Positions at or past
  // `end` are not done, and done_ ends with a zero word, so no masking is
  // needed and the two-word read never runs off the end.
  const std::uint32_t shift = first % 64;
  for (std::uint32_t w = 0; w < words; ++w) {
    const std::size_t at = first / 64 + w;
    std::uint64_t bits = done_[at] >> shift;
    if (shift != 0) bits |= done_[at + 1] << (64 - shift);
    key.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  }
}

}  // namespace psc
