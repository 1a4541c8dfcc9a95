#include "mmt/mmt_node.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace psc {

MmtNode::MmtNode(int node, std::unique_ptr<Machine> inner, Duration ell,
                 Rng rng, double min_gap_frac)
    : Machine("M(" + inner->name() + ")"),
      node_(node),
      inner_(std::move(inner)),
      ell_(ell),
      rng_(rng),
      min_gap_frac_(min_gap_frac) {
  PSC_CHECK(ell_ > 0, "ell must be positive");
  PSC_CHECK(min_gap_frac_ > 0 && min_gap_frac_ <= 1.0, "min_gap_frac");
  set_clocked(true);
  next_step_ = draw_gap();
}

Duration MmtNode::draw_gap() {
  const auto lo = static_cast<Duration>(
      min_gap_frac_ * static_cast<double>(ell_));
  return rng_.uniform(std::max<Duration>(1, lo), ell_);
}

ActionRole MmtNode::classify(const Action& a) const {
  if (a.name == "TICK" && a.node == node_) return ActionRole::kInput;
  if (a.name == "MMTSTEP" && a.node == node_) return ActionRole::kInternal;
  const ActionRole inner_role = inner_->classify(a);
  // The wrapped machine's internal actions happen silently inside
  // catch_up(); only its inputs and outputs cross the MMT boundary.
  if (inner_role == ActionRole::kInternal) return ActionRole::kNotMine;
  return inner_role;
}

void MmtNode::catch_up(Time t) {
  const Time target = mmtclock_;
  while (simclock_ <= target) {
    // Drain actions enabled at the current simulated clock.
    for (;;) {
      ActionCursor cursor(scratch_);
      inner_->enabled_into(simclock_, cursor);
      cursor.trim();
      if (scratch_.empty()) break;
      // Deterministic order: as reported. Applying one action can change
      // the enabled set, so take only the first and re-query.
      const Action& a = scratch_.front();
      const ActionRole role = inner_->classify(a);
      inner_->apply_local(a, simclock_);
      if (role == ActionRole::kOutput) {
        pending_.push_back({std::move(scratch_.front()), t});
        stats_.max_pending = std::max(stats_.max_pending, pending_.size());
      }
    }
    const Time nxt = inner_->next_enabled(simclock_);
    if (nxt > target) break;
    PSC_CHECK(nxt > simclock_, "inner machine does not advance");
    simclock_ = nxt;
  }
  simclock_ = std::max(simclock_, target);
}

void MmtNode::apply_input(const Action& a, Time t) {
  if (a.name == "TICK") {
    const Time c = as_int(a.args.at(0));
    // Clock values are monotone; a stale tick (possible only through
    // adversarial scheduling at equal times) is ignored.
    mmtclock_ = std::max(mmtclock_, c);
    return;
  }
  // Def 5.1 input case: catch up to mmtclock first (the input applies to
  // fragstate), then deliver.
  catch_up(t);
  inner_->apply_input(a, simclock_);
}

std::vector<Action> MmtNode::enabled(Time t) const { return collect(t); }

void MmtNode::enabled_into(Time t, ActionCursor& out) const {
  if (t >= next_step_) {
    if (!pending_.empty()) {
      out.next() = pending_.front().action;  // copy-assign sets every field
    } else {
      out.put("MMTSTEP", node_);
    }
  }
}

void MmtNode::apply_local(const Action& a, Time t) {
  PSC_CHECK(t >= next_step_, "MMT step fired early");
  ++stats_.steps;
  if (a.name == "MMTSTEP") {
    PSC_CHECK(pending_.empty(), "tau step with pending outputs");
    catch_up(t);
  } else {
    PSC_CHECK(!pending_.empty() && pending_.front().action == a,
              "MMT output out of order: " << to_string(a));
    const Duration delay = t - pending_.front().enqueued_at;
    stats_.max_emit_delay = std::max(stats_.max_emit_delay, delay);
    pending_.pop_front();
    ++stats_.outputs;
    // Def 5.1 output case: the new fragment's outputs are appended after
    // the emission.
    catch_up(t);
  }
  next_step_ = t + draw_gap();
}

Time MmtNode::upper_bound(Time /*t*/) const { return next_step_; }

Time MmtNode::next_enabled(Time t) const {
  return next_step_ > t ? next_step_ : kTimeMax;
}

Time MmtNode::clock_reading(Time /*t*/) const { return mmtclock_; }

}  // namespace psc
