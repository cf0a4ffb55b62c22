//===- MemModel.h - Memory models (§3.2) -----------------------*- C++ -*-===//
//
// A memory model is a forest of memory trees:
//
//   MemTree := {C × N} × Mem        Mem := {MemTree}
//
// Two regions in the same node alias; children are enclosed in their
// parents; siblings are separate (Definition 3.9). Insertion (Definition
// 3.7) is *nondeterministic*: when the relation between the inserted
// region and an existing tree cannot be established, the model branches
// over the possible relations — or, when partial overlap is possible,
// destroys the affected trees (§1: "we do not generate a new memory model,
// but instead simply destroy all regions in memory that may partially
// overlap").
//
// Beyond the paper's forest we carry a *clobber set*: every region that
// may have been written since function entry. The forest alone cannot
// answer "has [a,s] been written?" after joins drop trees (Definition 3.12
// intersects region sets), and that answer is what licenses reading the
// *initial* memory content for a region — so it is tracked monotonically
// here and only ever grows (or collapses to HavocAll).
//
// Forest and Clobbered are copy-on-write (support/Cow.h): copying a model
// (a successor state, an insertion outcome, a memo entry) shares both, and
// the first write through mut() clones the buffer it touches.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_MEMMODEL_MEMMODEL_H
#define HGLIFT_MEMMODEL_MEMMODEL_H

#include "smt/RelationSolver.h"
#include "support/Cow.h"

#include <string>
#include <vector>

namespace hglift::mem {

using smt::MemRel;
using smt::Region;

struct MemTree {
  std::vector<Region> Node;      ///< mutually aliasing regions
  std::vector<MemTree> Children; ///< enclosed sub-forest

  bool operator==(const MemTree &O) const = default;

  /// All regions in this tree (node + descendants).
  void collectRegions(std::vector<Region> &Out) const;
};

/// Policy for unknown pairwise relations during insertion — the paper's
/// behaviour is BranchAliasOrSep; DestroyAlways is the ablation that shows
/// why the nondeterministic branching matters (it loses the §2 weird edge).
enum class UnknownPolicy : uint8_t {
  BranchAliasOrSep,
  DestroyAlways,
};

/// One asserted relation, for the Step-2 checker and the tests.
struct RegionRel {
  Region R0, R1;
  MemRel Rel;
};

class MemModel {
public:
  Cow<std::vector<MemTree>> Forest;

  /// Regions possibly written since function entry (monotone; unioned on
  /// join). When the set overflows, HavocAll is set instead.
  Cow<std::vector<Region>> Clobbered;
  bool HavocAll = false;
  /// Set by external function calls: all non-stack-frame memory may have
  /// been written (§1's System V assumption keeps the local frame intact).
  bool HavocGlobals = false;

  bool operator==(const MemModel &O) const = default;

  // --- insertion (Definition 3.7) -----------------------------------------

  /// Insert region R, producing every possible resulting model. Ctx is
  /// used only to render assumption text.
  std::vector<struct InsertResult> insert(const Region &R,
                                          const pred::Pred &P,
                                          smt::RelationSolver &Solver,
                                          UnknownPolicy Policy,
                                          const expr::ExprContext &Ctx) const;

  // --- write tracking ------------------------------------------------------

  void noteWrite(const Region &R);
  /// Is R provably untouched since function entry (licenses reading the
  /// initial memory content)?
  bool provablyUntouched(const Region &R, const pred::Pred &P,
                         smt::RelationSolver &Solver,
                         const expr::ExprContext &Ctx) const;

  // --- join (Definition 3.12) ----------------------------------------------

  static MemModel join(const MemModel &A, const MemModel &B);

  /// Abstraction order for Algorithm 1 / the Step-2 checker: B is at least
  /// as abstract as A iff every relation asserted by B's forest is asserted
  /// by A's (and B's clobber knowledge covers A's).
  static bool leq(const MemModel &A, const MemModel &B);

  /// The first requirement A fails to meet (a B relation A does not
  /// assert, or clobber knowledge B lacks), found by the very walk leq()
  /// runs and rendered. Returns the empty string when leq holds.
  static std::string leqExplain(const expr::ExprContext &Ctx,
                                const MemModel &A, const MemModel &B);

  // --- inspection -----------------------------------------------------------

  /// All pairwise relations asserted by the forest (Definition 3.9 view).
  std::vector<RegionRel> relations() const;
  std::vector<Region> allRegions() const;

  /// Locate R's node in the forest. On success fills the regions aliasing
  /// R (same node, R excluded), the regions of enclosing nodes (ancestors)
  /// and of enclosed nodes (descendants). Returns false if R is not in the
  /// forest.
  bool locate(const Region &R, std::vector<Region> &Aliases,
              std::vector<Region> &Ancestors,
              std::vector<Region> &Descendants) const;

  /// Semantic satisfaction s ⊢ M (Definition 3.9), for the property tests:
  /// evaluates region addresses concretely and checks alias / separation /
  /// enclosure numerically.
  bool holds(const expr::VarValuation &Vars, const expr::MemOracle &Mem) const;

  /// Structural content digest over the forest shape (region address
  /// hashes + sizes + nesting), the clobber set, and the havoc flags.
  /// Consistent with operator== : equal models have equal digests. Used by
  /// the lifter's leq memo (hg/StateMemo.h); collisions are resolved there
  /// by a full equality check, never trusted blindly.
  uint64_t digest() const;

  std::string str(const expr::ExprContext &Ctx) const;

private:
  static constexpr size_t MaxClobbered = 256;
  static constexpr size_t MaxModelsPerInsert = 8;
};

/// Result of one nondeterministic insertion outcome.
struct InsertResult {
  MemModel Model;
  /// Regions whose trees were destroyed; the caller must drop their
  /// memory clauses from the predicate.
  std::vector<Region> Destroyed;
  /// Human-readable assumptions made (no-partial-overlap branches).
  std::vector<std::string> Assumptions;
};

} // namespace hglift::mem

#endif // HGLIFT_MEMMODEL_MEMMODEL_H
