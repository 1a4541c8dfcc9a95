#include "core/machine.hpp"

namespace psc {

const char* to_string(ActionRole role) {
  switch (role) {
    case ActionRole::kInput:
      return "input";
    case ActionRole::kOutput:
      return "output";
    case ActionRole::kInternal:
      return "internal";
    case ActionRole::kNotMine:
      return "not-mine";
  }
  return "?";
}

void Machine::enabled_into(Time t, ActionCursor& out) const {
  for (Action& a : enabled(t)) out.next() = std::move(a);
}

std::vector<Action> Machine::collect(Time t) const {
  std::vector<Action> out;
  ActionCursor cursor(out);
  enabled_into(t, cursor);
  cursor.trim();
  return out;
}

void SignatureDecl::add(std::string name, int node, int peer,
                        ActionRole role) {
  entries_.push_back(Entry{std::move(name), node, peer, role});
}

void SignatureDecl::input(std::string name, int node, int peer) {
  add(std::move(name), node, peer, ActionRole::kInput);
}

void SignatureDecl::output(std::string name, int node, int peer) {
  add(std::move(name), node, peer, ActionRole::kOutput);
}

void SignatureDecl::internal(std::string name, int node, int peer) {
  add(std::move(name), node, peer, ActionRole::kInternal);
}

}  // namespace psc
