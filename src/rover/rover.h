/**
 * @file
 * ROVER: the datapath / gate-level rewriting engine (Coward et al.),
 * re-implemented over our e-graph as SEER's "internal" rule set.
 *
 * The rule set mirrors the paper's Table 2 classes — expression
 * balancing (associativity/commutativity), strength reduction between
 * multiplies and shift-adds, constant manipulation, distribution, mux
 * reduction, and a restricted group of gate-level identities. All rules
 * are instantiated per concrete bitwidth (the symbols are typed), giving
 * the "106 datapath and gate-level rewrites, all signage and bitwidth
 * dependent" of the paper.
 */
#ifndef SEER_ROVER_ROVER_H_
#define SEER_ROVER_ROVER_H_

#include "egraph/extract.h"
#include "egraph/rewrite.h"

namespace seer::rover {

/** The full ROVER rule set: every group, at i8, i16, i32, i64 and
 *  index. Built once per process; callers get copies sharing its
 *  compiled patterns. */
std::vector<eg::Rewrite> roverRules();

/** Constant-folding hooks for the e-graph analysis (width-aware). */
eg::AnalysisHooks roverAnalysisHooks();

/**
 * ROVER's bitwidth-dependent gate-count area model over SeerLang
 * symbols: the cost function of the paper's Eqn (4) ILP extraction.
 * Statement operators cost their port/controller logic so whole-function
 * extraction remains well-defined.
 */
class RoverAreaCost : public eg::CostModel
{
  public:
    /** With an e-graph, shift-amount constancy is checked through the
     *  analysis (constant shifts are free wiring, variable shifts are
     *  barrel shifters); without one, shifts are assumed constant. */
    explicit RoverAreaCost(const eg::EGraph *egraph = nullptr)
        : egraph_(egraph)
    {}

    double nodeCost(const eg::ENode &node) const override
    {
        return costWith(egraph_, node);
    }

    /** Class-aware form: reads shift-amount constancy from the graph the
     *  node lives in, regardless of the graph bound at construction. */
    double nodeCostInClass(const eg::EGraph &egraph,
                           const eg::ENode &node) const override
    {
        return costWith(&egraph, node);
    }

    std::string name() const override { return "rover-area"; }

  private:
    double costWith(const eg::EGraph *egraph,
                    const eg::ENode &node) const;

    const eg::EGraph *egraph_;
};

/**
 * The analysis-friendly cost function of Section 4.5: additions and
 * multiplications (affine material) are cheap, shifts and bitwise logic
 * expensive, so local extraction surfaces polyhedral-analyzable forms.
 */
class AnalysisFriendlyCost : public eg::CostModel
{
  public:
    double nodeCost(const eg::ENode &node) const override;
    std::string name() const override { return "analysis-friendly"; }
};

} // namespace seer::rover

#endif // SEER_ROVER_ROVER_H_
