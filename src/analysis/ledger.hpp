// The event ledger: the one place that answers the two questions every
// conformance check and probe asks of the event stream.
//
//   Which send does this delivery match, and which clock tag did it carry?
//     Drives PSC102-104 (Figure 1, Simulation 1, Theorem 4.7), PSC206
//     (certificates), the bound-slack observatory, channel latency and
//     Simulation-1 hold times.
//   How long since this node's last TICK, or this MMT node's last step?
//     Drives PSC105 and the Def 5.1 boundmap slack.
//
// The ledger owns the convention-name classifier (classify_name, the only
// place the SENDMSG/ESENDMSG/ERECVMSG/RECVMSG/TICK/MMTSTEP spellings are
// compared), the per-uid message record, the per-node last-TICK tracker and
// the per-owner last-step tracker. Consumers keep their own policy — what
// an unmatched delivery means, which windows to check — and each consumer
// owns its own ledger, so there is no attach order to respect. Each leg
// costs nothing until a consumer calls it: a probe that only classifies
// keeps no per-uid state.
//
// Action names follow the library's conventions; renamed systems need their
// traces translated back first.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/trace.hpp"

namespace psc {

// How an action name relates to the library's messaging conventions. The
// byte values are part of the flight-recorder snapshot format (records
// store them), so they never change.
enum class EventClass : std::uint8_t {
  kOther = 0,
  kSend,     // SENDMSG   (user-level send)
  kRecv,     // RECVMSG   (delivery / Sim1 buffer release)
  kESend,    // ESENDMSG  (physical send under Simulation 1)
  kERecv,    // ERECVMSG  (physical delivery under Simulation 1)
  kTick,     // TICK
  kMmtStep,  // MMTSTEP
};

EventClass classify_name(std::string_view name);

class EventLedger {
 public:
  // Real-time and clock-time bookkeeping for one message uid. A field is
  // unset (< 0, or kNoClockTag) until its event is seen; when a uid is
  // sent more than once, the latest send wins.
  struct Record {
    Time send_time = -1;     // SENDMSG (timed-model send)
    Time esend_time = -1;    // ESENDMSG (physical send under Simulation 1)
    Time erecv_time = -1;    // ERECVMSG (physical delivery under Sim 1)
    Time tag = kNoClockTag;  // sender clock tag carried by the message

    bool sent() const { return send_time >= 0 || esend_time >= 0; }
  };

  // The event's class: memoized per interned kind (TimedEvent::kind >= 0),
  // from the name otherwise. Kind ids are per run, so one ledger must only
  // see one executor's events.
  EventClass classify(const TimedEvent& e);

  // Message leg. Records a send (SENDMSG, ESENDMSG with its tag) or a
  // physical delivery (ERECVMSG; its tag is kept only once the ESENDMSG
  // was seen, because the receive buffer strips it before the RECVMSG
  // release) and returns the uid's record, read after the update. A
  // RECVMSG only reads. Events that carry no message, other classes and
  // uids never seen return a record with every field unset.
  const Record& match(const TimedEvent& e, EventClass cls);

  // Gap legs. tick_gap records a TICK from a node and returns the time
  // since that node's previous TICK (since 0 for its first: the boundmap
  // runs from time 0); nullopt for any other event. step_gap records every
  // event of an owner machine and, once that owner has emitted an MMTSTEP,
  // returns the time since its previous event (since 0 for its first).
  std::optional<Duration> tick_gap(const TimedEvent& e, EventClass cls);
  std::optional<Duration> step_gap(const TimedEvent& e, EventClass cls);
  // Last TICK recorded for `node` by tick_gap, nullopt before the first.
  std::optional<Time> last_tick(int node) const;

  // The record for `uid`; nullptr when the ledger holds none. A uid inside
  // the dense range that was never written reads as all fields unset.
  const Record* find(std::uint64_t uid) const;

 private:
  struct Owner {
    Time last = 0;     // previous event of this owner
    bool mmt = false;  // has emitted an MMTSTEP
  };

  Record& slot(std::uint64_t uid);

  std::vector<std::uint8_t> kind_class_;  // ActionKindId -> EventClass memo

  // Message uids come from one process-wide monotone counter, so a run's
  // uids fill a narrow range: a base-offset vector keeps the per-message
  // bookkeeping O(1) without hashing. A uid that would stretch the range
  // past kSpread slots per record write (plus kSlack) goes to the overflow
  // map instead, so a sparse or adversarial uid sequence costs a hash
  // entry, never a range-sized allocation. Each uid lives in one place for
  // its whole life: the overflow map is consulted first.
  static constexpr std::uint64_t kSpread = 8;
  static constexpr std::uint64_t kSlack = 4096;
  std::uint64_t base_ = 0;
  std::uint64_t writes_ = 0;
  std::vector<Record> recs_;
  std::unordered_map<std::uint64_t, Record> overflow_;

  std::unordered_map<int, Time> last_tick_;  // node -> last TICK time
  std::unordered_map<int, Owner> owners_;    // owner -> step tracker
};

// Several consumers of one run each keep a record per uid.
static_assert(sizeof(EventLedger::Record) <= 32,
              "ledger records must stay within half a cache line");

}  // namespace psc
