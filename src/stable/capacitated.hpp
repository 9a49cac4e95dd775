// Many-to-one (Hospitals/Residents) matching on top of the one-to-one
// machinery — a practical extension: residents play the proposing side,
// each hospital h has a capacity c_h and one preference list over its
// acceptable residents.
//
// The classical reduction applies: replace hospital h by c_h "seats" with
// identical preference lists, and have every resident rank the seats of a
// hospital consecutively (in fixed seat order) where the hospital
// appeared in their list. A matching of the seat-expanded instance folds
// back to an assignment; stability (and (1-eps)-stability) of the
// expanded instance implies the corresponding property of the
// capacitated one, so every algorithm in this library — ASM, RandASM,
// AlmostRegularASM, Gale-Shapley — runs on Hospitals/Residents inputs
// unchanged.
#pragma once

#include <vector>

#include "graph/matching.hpp"
#include "stable/instance.hpp"

namespace dasm {

/// A Hospitals/Residents instance: residents (proposing side) rank
/// hospitals; hospitals rank residents and have capacities >= 1.
struct CapacitatedInstance {
  std::vector<Ranking> residents;  ///< entries are hospital indices
  std::vector<Ranking> hospitals;  ///< entries are resident indices
  std::vector<NodeId> capacities;  ///< parallel to hospitals
};

/// The seat-expanded one-to-one instance plus the bookkeeping needed to
/// fold matchings back.
class SeatExpansion {
 public:
  /// Validates symmetry and capacities, then builds the expansion.
  explicit SeatExpansion(CapacitatedInstance capacitated);

  /// One-to-one instance: men = residents, women = seats.
  const Instance& expanded() const { return expanded_; }

  NodeId n_residents() const { return raw_.n_men(); }
  NodeId n_hospitals() const { return raw_.n_women(); }
  NodeId n_seats() const { return static_cast<NodeId>(seat_hospital_.size()); }

  /// Hospital owning a seat (a woman index of the expanded instance).
  NodeId hospital_of_seat(NodeId seat) const;

  /// Folds a matching of the expanded instance into per-resident hospital
  /// assignments (kNoNode = unassigned). Checks capacities.
  std::vector<NodeId> fold(const Matching& matching) const;

  /// Blocking pairs of the capacitated instance under `assignment`:
  /// (r, h) where r and h are mutually acceptable and not assigned
  /// together, r prefers h to their assignment (or is unassigned), and h
  /// has a free seat or prefers r to its worst assigned resident.
  std::int64_t count_blocking_pairs(
      const std::vector<NodeId>& assignment) const;

 private:
  // Declaration order is initialization order: the raw lists are checked
  // (as an Instance: men = residents, women = hospitals) before the seats
  // are laid out, and both before the expansion reads them.
  std::vector<NodeId> capacities_;
  Instance raw_;
  std::vector<NodeId> seat_hospital_;  // seat -> hospital
  Instance expanded_;
};

}  // namespace dasm
