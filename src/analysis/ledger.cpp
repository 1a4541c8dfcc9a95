#include "analysis/ledger.hpp"

#include <algorithm>

namespace psc {

namespace {

// Returned for events the message leg does not record and for uids never
// seen: every field unset.
constexpr EventLedger::Record kNoRecord{};

constexpr std::uint8_t kUnclassified = 0xff;

}  // namespace

EventClass classify_name(std::string_view nm) {
  // Dispatch on (length, lead byte) before any full comparison: events
  // without an interned kind (hand-built, legacy-loop and replayed traces)
  // classify per event.
  if (nm.size() == 7) {
    if (nm[0] == 'S' && nm == "SENDMSG") return EventClass::kSend;
    if (nm[0] == 'R' && nm == "RECVMSG") return EventClass::kRecv;
    if (nm[0] == 'M' && nm == "MMTSTEP") return EventClass::kMmtStep;
    return EventClass::kOther;
  }
  if (nm.size() == 8 && nm[0] == 'E') {
    if (nm[1] == 'S' && nm == "ESENDMSG") return EventClass::kESend;
    if (nm[1] == 'R' && nm == "ERECVMSG") return EventClass::kERecv;
    return EventClass::kOther;
  }
  if (nm.size() == 4 && nm == "TICK") return EventClass::kTick;
  return EventClass::kOther;
}

EventClass EventLedger::classify(const TimedEvent& e) {
  if (e.kind < 0) return classify_name(e.action.name);
  const auto kid = static_cast<std::size_t>(e.kind);
  if (kid >= kind_class_.size()) kind_class_.resize(kid + 1, kUnclassified);
  std::uint8_t& memo = kind_class_[kid];
  if (memo == kUnclassified) {
    memo = static_cast<std::uint8_t>(classify_name(e.action.name));
  }
  return static_cast<EventClass>(memo);
}

const EventLedger::Record& EventLedger::match(const TimedEvent& e,
                                              EventClass cls) {
  if (!e.action.msg.has_value()) return kNoRecord;
  const Message& m = *e.action.msg;
  switch (cls) {
    case EventClass::kSend: {
      Record& r = slot(m.uid);
      r.send_time = e.time;
      return r;
    }
    case EventClass::kESend: {
      Record& r = slot(m.uid);
      r.esend_time = e.time;
      if (m.clock_tag != kNoClockTag) r.tag = m.clock_tag;
      return r;
    }
    case EventClass::kERecv: {
      Record& r = slot(m.uid);
      r.erecv_time = e.time;
      if (r.esend_time >= 0 && m.clock_tag != kNoClockTag) r.tag = m.clock_tag;
      return r;
    }
    case EventClass::kRecv: {
      const Record* r = find(m.uid);
      return r != nullptr ? *r : kNoRecord;
    }
    default:
      return kNoRecord;
  }
}

std::optional<Duration> EventLedger::tick_gap(const TimedEvent& e,
                                              EventClass cls) {
  if (cls != EventClass::kTick || e.action.node == kNoNode) {
    return std::nullopt;
  }
  Time& last = last_tick_.try_emplace(e.action.node, 0).first->second;
  const Duration gap = e.time - last;
  last = e.time;
  return gap;
}

std::optional<Duration> EventLedger::step_gap(const TimedEvent& e,
                                              EventClass cls) {
  if (e.owner < 0) return std::nullopt;
  Owner& o = owners_[e.owner];
  if (cls == EventClass::kMmtStep) o.mmt = true;
  std::optional<Duration> gap;
  if (o.mmt) gap = e.time - o.last;
  o.last = e.time;
  return gap;
}

std::optional<Time> EventLedger::last_tick(int node) const {
  const auto it = last_tick_.find(node);
  if (it == last_tick_.end()) return std::nullopt;
  return it->second;
}

const EventLedger::Record* EventLedger::find(std::uint64_t uid) const {
  if (!overflow_.empty()) {
    const auto it = overflow_.find(uid);
    if (it != overflow_.end()) return &it->second;
  }
  if (uid >= base_ && uid - base_ < recs_.size()) {
    return &recs_[static_cast<std::size_t>(uid - base_)];
  }
  return nullptr;
}

EventLedger::Record& EventLedger::slot(std::uint64_t uid) {
  ++writes_;
  if (!overflow_.empty()) {
    const auto it = overflow_.find(uid);
    if (it != overflow_.end()) return it->second;
  }
  const std::uint64_t span = recs_.size();
  if (uid >= base_ && uid - base_ < span) {
    return recs_[static_cast<std::size_t>(uid - base_)];
  }
  if (span == 0) {
    base_ = uid;
    return recs_.emplace_back();
  }
  // The range only grows while it spans at most kSpread slots per write,
  // so `cap >= span` always holds.
  const std::uint64_t cap = kSpread * writes_ + kSlack;
  if (uid >= base_) {
    const std::uint64_t i = uid - base_;
    if (i < cap) {
      recs_.resize(static_cast<std::size_t>(i + 1));
      return recs_[static_cast<std::size_t>(i)];
    }
  } else if (base_ - uid <= cap - span) {
    // Rare: an earlier-created message observed after a later one. Open
    // headroom below it too, so a descending run of uids costs amortized
    // O(1) per uid instead of one whole-range shift each.
    const std::uint64_t grow =
        std::min({std::max(base_ - uid, span), cap - span, base_});
    recs_.insert(recs_.begin(), static_cast<std::size_t>(grow), Record{});
    base_ -= grow;
    return recs_[static_cast<std::size_t>(uid - base_)];
  }
  return overflow_[uid];
}

}  // namespace psc
