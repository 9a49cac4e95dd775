#include "stable/capacitated.hpp"

#include <numeric>

#include "util/check.hpp"

namespace dasm {

namespace {

// Seat -> owning hospital; hospital h's seats are consecutive.
std::vector<NodeId> lay_out_seats(const std::vector<NodeId>& capacities,
                                  NodeId n_hospitals) {
  DASM_CHECK_MSG(static_cast<NodeId>(capacities.size()) == n_hospitals,
                 "capacities must parallel the hospital list");
  std::vector<NodeId> seat_hospital;
  for (NodeId h = 0; h < n_hospitals; ++h) {
    const NodeId c = capacities[static_cast<std::size_t>(h)];
    DASM_CHECK_MSG(c >= 1, "hospital " << h << " has capacity " << c);
    seat_hospital.insert(seat_hospital.end(), static_cast<std::size_t>(c), h);
  }
  return seat_hospital;
}

// Residents rank every seat of a hospital, in seat order, where they
// ranked the hospital; every seat carries its hospital's list verbatim.
Instance expand(const Instance& raw, const std::vector<NodeId>& seat_hospital) {
  std::vector<NodeId> first_seat(static_cast<std::size_t>(raw.n_women()) + 1,
                                 0);
  for (NodeId h : seat_hospital) ++first_seat[static_cast<std::size_t>(h) + 1];
  std::partial_sum(first_seat.begin(), first_seat.end(), first_seat.begin());
  std::vector<std::int64_t> offsets{0};
  std::vector<NodeId> ranked;
  for (NodeId r = 0; r < raw.n_men(); ++r) {
    for (NodeId h : raw.man_pref(r).ranked()) {
      for (NodeId s = first_seat[static_cast<std::size_t>(h)];
           s < first_seat[static_cast<std::size_t>(h) + 1]; ++s) {
        ranked.push_back(s);
      }
    }
    offsets.push_back(static_cast<std::int64_t>(ranked.size()));
  }
  for (NodeId h : seat_hospital) {
    const RankedView list = raw.woman_pref(h).ranked();
    ranked.insert(ranked.end(), list.begin(), list.end());
    offsets.push_back(static_cast<std::int64_t>(ranked.size()));
  }
  return Instance(raw.n_men(), static_cast<NodeId>(seat_hospital.size()),
                  std::move(offsets), std::move(ranked));
}

}  // namespace

SeatExpansion::SeatExpansion(CapacitatedInstance capacitated)
    : capacities_(std::move(capacitated.capacities)),
      raw_(capacitated.residents, capacitated.hospitals),
      seat_hospital_(lay_out_seats(capacities_, raw_.n_women())),
      expanded_(expand(raw_, seat_hospital_)) {}

NodeId SeatExpansion::hospital_of_seat(NodeId seat) const {
  DASM_CHECK(seat >= 0 && seat < n_seats());
  return seat_hospital_[static_cast<std::size_t>(seat)];
}

std::vector<NodeId> SeatExpansion::fold(const Matching& matching) const {
  DASM_CHECK(matching.node_count() == expanded_.graph().node_count());
  std::vector<NodeId> assignment(static_cast<std::size_t>(n_residents()),
                                 kNoNode);
  std::vector<NodeId> load(static_cast<std::size_t>(n_hospitals()), 0);
  for (NodeId r = 0; r < n_residents(); ++r) {
    const NodeId p = matching.partner_of(expanded_.graph().man_id(r));
    if (p == kNoNode) continue;
    const NodeId seat = expanded_.graph().woman_index(p);
    const NodeId h = hospital_of_seat(seat);
    assignment[static_cast<std::size_t>(r)] = h;
    ++load[static_cast<std::size_t>(h)];
  }
  for (NodeId h = 0; h < n_hospitals(); ++h) {
    DASM_CHECK_MSG(load[static_cast<std::size_t>(h)] <=
                       capacities_[static_cast<std::size_t>(h)],
                   "hospital " << h << " over capacity");
  }
  return assignment;
}

std::int64_t SeatExpansion::count_blocking_pairs(
    const std::vector<NodeId>& assignment) const {
  DASM_CHECK(static_cast<NodeId>(assignment.size()) == n_residents());
  // Per hospital: assigned residents and the worst (highest-rank) one.
  std::vector<std::vector<NodeId>> assigned(
      static_cast<std::size_t>(n_hospitals()));
  for (NodeId r = 0; r < n_residents(); ++r) {
    const NodeId h = assignment[static_cast<std::size_t>(r)];
    if (h != kNoNode) assigned[static_cast<std::size_t>(h)].push_back(r);
  }
  std::int64_t blocking = 0;
  for (NodeId r = 0; r < n_residents(); ++r) {
    const PreferenceList rp = raw_.man_pref(r);
    const NodeId my_h = assignment[static_cast<std::size_t>(r)];
    for (NodeId h : rp.ranked()) {
      if (h == my_h) continue;
      if (my_h != kNoNode && !rp.prefers(h, my_h)) continue;
      const PreferenceList hp = raw_.woman_pref(h);
      const auto& occupants = assigned[static_cast<std::size_t>(h)];
      bool hospital_wants = static_cast<NodeId>(occupants.size()) <
                            capacities_[static_cast<std::size_t>(h)];
      if (!hospital_wants) {
        for (NodeId other : occupants) {
          if (hp.prefers(r, other)) {
            hospital_wants = true;
            break;
          }
        }
      }
      if (hospital_wants) ++blocking;
    }
  }
  return blocking;
}

}  // namespace dasm
