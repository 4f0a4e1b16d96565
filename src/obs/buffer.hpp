// In-memory trace sink: records the full event stream in emission order.
//
// Tests and benches query it directly; summary.hpp reduces it to per-phase
// totals. The buffer keeps the interleaving of round and phase events
// (phase attribution of a round depends on which spans were open when the
// round executed), plus flat per-kind views over it for convenience.
#pragma once

#include <cstddef>
#include <ranges>
#include <vector>

#include "obs/trace.hpp"

namespace dmc::obs {

class TraceBuffer final : public TraceSink {
 public:
  struct Item {
    enum class Kind : std::uint8_t {
      RunBegin,
      Round,
      Phase,
      Fault,
      Quiescent,
      RunEnd
    };
    Kind kind = Kind::Round;
    // Exactly one of the following is meaningful, per `kind`.
    RunInfo run;
    RoundEvent round;
    PhaseEvent phase;
    FaultEvent fault;
    QuiescentEvent quiescent;
  };

  void run_begin(const RunInfo& info) override {
    Item item;
    item.kind = Item::Kind::RunBegin;
    item.run = info;
    items_.push_back(std::move(item));
    ++num_runs_;
  }

  void round(const RoundEvent& ev) override {
    Item item;
    item.kind = Item::Kind::Round;
    item.round = ev;
    items_.push_back(std::move(item));
  }

  void phase(const PhaseEvent& ev) override {
    Item item;
    item.kind = Item::Kind::Phase;
    item.phase = ev;
    items_.push_back(std::move(item));
  }

  void fault(const FaultEvent& ev) override {
    Item item;
    item.kind = Item::Kind::Fault;
    item.fault = ev;
    items_.push_back(std::move(item));
  }

  // Stored compactly, not expanded: a million-vertex fast-forwarded run
  // coalesces billions of rounds into a handful of these.
  void quiescent(const QuiescentEvent& ev) override {
    Item item;
    item.kind = Item::Kind::Quiescent;
    item.quiescent = ev;
    items_.push_back(std::move(item));
  }

  void run_end() override {
    Item item;
    item.kind = Item::Kind::RunEnd;
    items_.push_back(std::move(item));
  }

 private:
  // Defined ahead of the accessors below, which deduce their type from it.
  /// The `field` of every item of `kind`, in emission order.
  template <class Event>
  auto events(Item::Kind kind, Event Item::*field) const {
    const auto of_kind = [kind](const Item& i) { return i.kind == kind; };
    const auto event = [field](const Item& i) -> const Event& {
      return i.*field;
    };
    return items_ | std::views::filter(of_kind) |
           std::views::transform(event);
  }

 public:
  /// Full stream in emission order.
  const std::vector<Item>& items() const { return items_; }
  /// All round events, in order (a view over items()).
  auto rounds() const { return events(Item::Kind::Round, &Item::round); }
  /// All phase events, in order.
  auto phases() const { return events(Item::Kind::Phase, &Item::phase); }
  /// All injected-fault events, in order.
  auto faults() const { return events(Item::Kind::Fault, &Item::fault); }
  /// All coalesced quiescent stretches, in order.
  auto quiescents() const {
    return events(Item::Kind::Quiescent, &Item::quiescent);
  }
  int num_runs() const { return num_runs_; }

  void clear() {
    items_.clear();
    num_runs_ = 0;
  }

 private:
  std::vector<Item> items_;
  int num_runs_ = 0;
};

}  // namespace dmc::obs
