// MILP transformation of the EXP-3D problem (Section 3.2).
//
// Per tuple t (local to the sub-problem):
//   x_t  ∈ {0,1}   1 ⟺ t ∈ Δ (provenance-based explanation)
//   y_t  ∈ {0,1}   1 ⟺ t kept with unchanged impact (t ∉ δ)
//   I*_t ∈ [1, U]  refined impact (integer when impacts are integral)
// with  y_t + x_t ≤ 1  and the big-U linearization of Eq. (7)
//   |I*_t − I_t| ≤ U (1 − y_t).
// The objective term of Eq. (8), with the b/c typo fixed (docs/DESIGN.md), is
//   (a−b)·x_t + (c−b)·y_t + b.
//
// Per match m = (i, j, p):
//   z_m ∈ {0,1};  z_m ≤ 1 − x_i;  z_m ≤ 1 − x_j           (Eq. 9)
//   objective (log p − log(1−p))·z_m + log(1−p).
//
// Validity and completeness (Eq. 10–12 + coverage, see docs/DESIGN.md):
//   degree-capped side:      Σ_m z_m + x_t = 1            (exactly-one)
//   uncapped side:           Σ_m z_m + x_t ≥ 1            (coverage)
//   impact equality (⊑, per one-side tuple j):
//     Σ_{i∈η(j)} Iz_ij − I*_j ∈ [−U x_j, U x_j],
//     Iz_ij = z_ij · I*_i linearized as Eq. (11)
//   impact equality (≡ / strict 1-1, per match): |I*_i − I*_j| ≤ U(1−z).

#ifndef EXPLAIN3D_CORE_MILP_ENCODER_H_
#define EXPLAIN3D_CORE_MILP_ENCODER_H_

#include <vector>

#include "core/explanation.h"
#include "core/probability_model.h"
#include "core/subproblem.h"
#include "matching/attribute_match.h"
#include "milp/model.h"

namespace explain3d {

/// Encoded model plus the variable tables needed to decode a solution.
struct EncodedMilp {
  milp::Model model;
  std::vector<milp::VarId> x1, y1, imp1;  // per local T1 tuple
  std::vector<milp::VarId> x2, y2, imp2;  // per local T2 tuple
  std::vector<milp::VarId> z;             // per local match
  /// Impacts are modeled in units of this scale (monetary-magnitude
  /// components are normalized for numerical conditioning).
  double impact_scale = 1.0;
};

/// Stateless encoder/decoder for one query pair.
class MilpEncoder {
 public:
  MilpEncoder(const CanonicalRelation& t1, const CanonicalRelation& t2,
              const TupleMapping& mapping, const AttributeMatch& attr,
              const ProbabilityModel& prob);

  /// Builds the MILP of one sub-problem.
  EncodedMilp Encode(const SubProblem& sub) const;

  /// Decodes a solver assignment into explanations with global indices.
  /// Evidence carries the original match probabilities.
  ExplanationSet Decode(const SubProblem& sub, const EncodedMilp& enc,
                        const std::vector<double>& values) const;

  /// True when the effective tuple mapping must be one-to-one on side 1 /
  /// side 2 (attribute-match cardinality plus the strict requirement of
  /// AVG/MAX/MIN queries, Definition 3.1).
  bool side1_capped() const { return cap1_; }
  bool side2_capped() const { return cap2_; }

 private:
  const CanonicalRelation& t1_;
  const CanonicalRelation& t2_;
  const TupleMapping& mapping_;
  const ProbabilityModel& prob_;
  bool cap1_ = true;
  bool cap2_ = true;
  bool integral_ = true;
};

/// Number of constraints Encode would emit (cheap estimate used to route
/// big components to the specialized exact solver).
size_t EstimateMilpConstraints(const SubProblem& sub, bool side1_capped,
                               bool side2_capped);

}  // namespace explain3d

#endif  // EXPLAIN3D_CORE_MILP_ENCODER_H_
