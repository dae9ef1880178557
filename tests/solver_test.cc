// Tests for the constraint solver stack: raw SAT, bit-blasting, intervals,
// slicing/caching in the facade, plus a randomized end-to-end property suite
// (solve a random constraint system, then check the model with the
// evaluator — and check UNSAT answers against brute force on small widths).
#include "src/solver/solver.h"

#include <gtest/gtest.h>

#include <atomic>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/expr/eval.h"
#include "src/solver/bitblast.h"
#include "src/solver/intervals.h"
#include "src/solver/known_bits.h"
#include "src/solver/sat.h"
#include "src/support/rng.h"

namespace ddt {
namespace {

// --- Raw SAT solver ---------------------------------------------------------

TEST(SatSolverTest, TrivialSat) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  sat.AddUnit(MakeLit(a, false));
  EXPECT_EQ(sat.Solve(), SatResult::kSat);
  EXPECT_TRUE(sat.ModelValue(a));
}

TEST(SatSolverTest, TrivialUnsat) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  sat.AddUnit(MakeLit(a, false));
  sat.AddUnit(MakeLit(a, true));
  EXPECT_EQ(sat.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, EmptyClauseIsUnsat) {
  SatSolver sat;
  EXPECT_FALSE(sat.AddClause({}));
  EXPECT_EQ(sat.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, PropagationChain) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  uint32_t b = sat.NewVar();
  uint32_t c = sat.NewVar();
  // a, a->b, b->c
  sat.AddUnit(MakeLit(a, false));
  sat.AddBinary(MakeLit(a, true), MakeLit(b, false));
  sat.AddBinary(MakeLit(b, true), MakeLit(c, false));
  EXPECT_EQ(sat.Solve(), SatResult::kSat);
  EXPECT_TRUE(sat.ModelValue(b));
  EXPECT_TRUE(sat.ModelValue(c));
}

TEST(SatSolverTest, PigeonholeThreeIntoTwoIsUnsat) {
  // 3 pigeons, 2 holes: forces real conflict analysis.
  SatSolver sat;
  uint32_t p[3][2];
  for (auto& row : p) {
    for (uint32_t& v : row) {
      v = sat.NewVar();
    }
  }
  for (auto& row : p) {
    sat.AddBinary(MakeLit(row[0], false), MakeLit(row[1], false));
  }
  for (int hole = 0; hole < 2; ++hole) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        sat.AddBinary(MakeLit(p[i][hole], true), MakeLit(p[j][hole], true));
      }
    }
  }
  EXPECT_EQ(sat.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, AssumptionsWork) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  uint32_t b = sat.NewVar();
  sat.AddBinary(MakeLit(a, true), MakeLit(b, false));  // a -> b
  EXPECT_EQ(sat.Solve({MakeLit(a, false), MakeLit(b, true)}), SatResult::kUnsat);
  EXPECT_EQ(sat.Solve({MakeLit(a, false)}), SatResult::kSat);
  EXPECT_TRUE(sat.ModelValue(b));
}

TEST(SatSolverTest, RandomThreeSatAgainstBruteForce) {
  Rng rng(77);
  for (int round = 0; round < 60; ++round) {
    constexpr int kVars = 8;
    int num_clauses = 10 + static_cast<int>(rng.NextBelow(25));
    std::vector<std::vector<SatLit>> clauses;
    SatSolver sat;
    for (int i = 0; i < kVars; ++i) {
      sat.NewVar();
    }
    for (int i = 0; i < num_clauses; ++i) {
      std::vector<SatLit> clause;
      for (int j = 0; j < 3; ++j) {
        clause.push_back(
            MakeLit(static_cast<uint32_t>(rng.NextBelow(kVars)), rng.NextBelow(2) == 0));
      }
      clauses.push_back(clause);
      sat.AddClause(clause);
    }
    // Brute force.
    bool expect_sat = false;
    for (uint32_t mask = 0; mask < (1u << kVars) && !expect_sat; ++mask) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (SatLit lit : clause) {
          bool value = ((mask >> LitVar(lit)) & 1) != 0;
          if (LitNegated(lit)) {
            value = !value;
          }
          any |= value;
        }
        if (!any) {
          all = false;
          break;
        }
      }
      expect_sat |= all;
    }
    SatResult result = sat.Solve();
    EXPECT_EQ(result, expect_sat ? SatResult::kSat : SatResult::kUnsat) << "round " << round;
    if (result == SatResult::kSat) {
      for (const auto& clause : clauses) {
        bool any = false;
        for (SatLit lit : clause) {
          bool value = sat.ModelValue(LitVar(lit));
          if (LitNegated(lit)) {
            value = !value;
          }
          any |= value;
        }
        EXPECT_TRUE(any) << "model violates clause in round " << round;
      }
    }
  }
}

// Clauses far longer than any fixed-size buffer, full of duplicate literals,
// complementary pairs and literals already decided at level 0, must mean
// exactly their set of literals.
TEST(SatSolverTest, LongClauseNormalizationCases) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  uint32_t b = sat.NewVar();
  uint32_t c = sat.NewVar();
  uint32_t d = sat.NewVar();
  uint32_t e = sat.NewVar();
  sat.AddUnit(MakeLit(a, false));  // a true at level 0
  sat.AddUnit(MakeLit(b, true));   // b false at level 0
  auto repeat = [](std::initializer_list<SatLit> lits, size_t size) {
    std::vector<SatLit> clause;
    while (clause.size() < size) {
      for (SatLit lit : lits) {
        clause.push_back(lit);
      }
    }
    return clause;
  };
  // 300 copies of (c, d, b): b is false, so the clause is (c | d).
  EXPECT_TRUE(
      sat.AddClause(repeat({MakeLit(c, false), MakeLit(d, false), MakeLit(b, false)}, 300)));
  EXPECT_EQ(sat.num_clauses(), 1u);
  // A complementary pair anywhere makes a tautology: nothing stored.
  std::vector<SatLit> tautology = repeat({MakeLit(c, true), MakeLit(e, false)}, 257);
  tautology.push_back(MakeLit(e, true));
  EXPECT_TRUE(sat.AddClause(tautology));
  EXPECT_EQ(sat.num_clauses(), 1u);
  // A literal already true at level 0 satisfies the clause: nothing stored.
  EXPECT_TRUE(
      sat.AddClause(repeat({MakeLit(d, true), MakeLit(e, true), MakeLit(a, false)}, 299)));
  EXPECT_EQ(sat.num_clauses(), 1u);
  // Only false literals besides ~e: the clause is the unit ~e, asserted now.
  EXPECT_TRUE(
      sat.AddClause(repeat({MakeLit(b, false), MakeLit(a, true), MakeLit(e, true)}, 300)));
  EXPECT_EQ(sat.num_clauses(), 1u);
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  EXPECT_FALSE(sat.ModelValue(e));
  EXPECT_TRUE(sat.ModelValue(c) || sat.ModelValue(d));

  // Nothing but false literals: the empty clause.
  SatSolver refuted;
  uint32_t p = refuted.NewVar();
  uint32_t q = refuted.NewVar();
  refuted.AddUnit(MakeLit(p, false));
  refuted.AddUnit(MakeLit(q, true));
  EXPECT_FALSE(refuted.AddClause(repeat({MakeLit(q, false), MakeLit(p, true)}, 400)));
  EXPECT_EQ(refuted.num_clauses(), 0u);
  EXPECT_EQ(refuted.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, RandomLongClausesAgainstBruteForce) {
  Rng rng(555);
  constexpr uint32_t kVars = 10;
  int sat_rounds = 0;
  int unsat_rounds = 0;
  for (int round = 0; round < 150; ++round) {
    SatSolver sat;
    for (uint32_t i = 0; i < kVars; ++i) {
      sat.NewVar();
    }
    std::vector<std::vector<SatLit>> clauses;
    // A few variables decided at level 0 before the long clauses arrive.
    for (uint64_t i = rng.NextBelow(4); i > 0; --i) {
      SatLit unit = MakeLit(static_cast<uint32_t>(rng.NextBelow(kVars)), rng.NextBelow(2) == 0);
      clauses.push_back({unit});
      sat.AddClause(clauses.back());
    }
    for (uint64_t i = 4 + rng.NextBelow(10); i > 0; --i) {
      // Draw 40..300 literals from one to three variables with a fixed
      // polarity each (so duplicates abound), occasionally the complement.
      uint32_t vars[3];
      bool negated[3];
      uint64_t distinct = 1 + rng.NextBelow(3);
      for (int k = 0; k < 3; ++k) {
        vars[k] = static_cast<uint32_t>(rng.NextBelow(kVars));
        negated[k] = rng.NextBelow(2) == 0;
      }
      std::vector<SatLit> clause;
      for (uint64_t n = 40 + rng.NextBelow(261); n > 0; --n) {
        int k = static_cast<int>(rng.NextBelow(distinct));
        bool flip = rng.NextBelow(400) == 0;
        clause.push_back(MakeLit(vars[k], negated[k] != flip));
      }
      clauses.push_back(clause);
      sat.AddClause(clause);
    }
    bool expect_sat = false;
    for (uint32_t mask = 0; mask < (1u << kVars) && !expect_sat; ++mask) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (SatLit lit : clause) {
          any |= (((mask >> LitVar(lit)) & 1) != 0) != LitNegated(lit);
        }
        all &= any;
      }
      expect_sat = all;
    }
    SatResult result = sat.Solve();
    ASSERT_EQ(result, expect_sat ? SatResult::kSat : SatResult::kUnsat) << "round " << round;
    if (result == SatResult::kSat) {
      ++sat_rounds;
      for (const auto& clause : clauses) {
        bool any = false;
        for (SatLit lit : clause) {
          any |= sat.ModelValue(LitVar(lit)) != LitNegated(lit);
        }
        EXPECT_TRUE(any) << "model violates a clause in round " << round;
      }
    } else {
      ++unsat_rounds;
    }
  }
  // Both verdicts were exercised.
  EXPECT_GT(sat_rounds, 10);
  EXPECT_GT(unsat_rounds, 10);
}

// --- Reuse: a Reset SatSolver is indistinguishable from a new one ------------

struct CnfInstance {
  uint32_t vars = 0;
  std::vector<std::vector<SatLit>> clauses;
  std::vector<SatLit> assumptions;
  uint64_t conflict_budget = 0;
};

// Random mostly-3-SAT near the satisfiability threshold, so solving takes
// decisions, conflicts, learned clauses and restarts; some instances carry
// assumptions or a conflict budget small enough to stop mid-search.
CnfInstance RandomCnf(Rng* rng) {
  CnfInstance cnf;
  cnf.vars = 12 + static_cast<uint32_t>(rng->NextBelow(40));
  size_t num_clauses = cnf.vars * (38 + rng->NextBelow(10)) / 10;
  for (size_t i = 0; i < num_clauses; ++i) {
    size_t len = rng->NextBelow(8) == 0 ? 2 + rng->NextBelow(5) : 3;
    std::vector<SatLit> clause;
    for (size_t j = 0; j < len; ++j) {
      clause.push_back(MakeLit(static_cast<uint32_t>(rng->NextBelow(cnf.vars)),
                               rng->NextBelow(2) == 0));
    }
    cnf.clauses.push_back(clause);
  }
  if (rng->NextBelow(4) == 0) {
    for (uint64_t i = 1 + rng->NextBelow(3); i > 0; --i) {
      cnf.assumptions.push_back(
          MakeLit(static_cast<uint32_t>(rng->NextBelow(cnf.vars)), rng->NextBelow(2) == 0));
    }
  }
  if (rng->NextBelow(5) == 0) {
    cnf.conflict_budget = 1 + rng->NextBelow(4);
  }
  return cnf;
}

struct CnfOutcome {
  SatResult result = SatResult::kUnknown;
  std::vector<bool> model;
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  size_t num_clauses = 0;
};

CnfOutcome SolveCnf(SatSolver* sat, const CnfInstance& cnf) {
  for (uint32_t i = 0; i < cnf.vars; ++i) {
    sat->NewVar();
  }
  for (const std::vector<SatLit>& clause : cnf.clauses) {
    sat->AddClause(clause);
  }
  CnfOutcome out;
  out.result = sat->Solve(cnf.assumptions, cnf.conflict_budget);
  if (out.result == SatResult::kSat) {
    for (uint32_t v = 0; v < cnf.vars; ++v) {
      out.model.push_back(sat->ModelValue(v));
    }
  }
  out.conflicts = sat->conflicts();
  out.decisions = sat->decisions();
  out.num_clauses = sat->num_clauses();
  return out;
}

TEST(SatSolverResetTest, ResetInstanceSolvesExactlyLikeAFreshOne) {
  Rng rng(2024);
  SatSolver reused;
  int verdicts[3] = {0, 0, 0};
  uint64_t total_conflicts = 0;
  for (int round = 0; round < 300; ++round) {
    CnfInstance cnf = RandomCnf(&rng);
    SatSolver fresh;
    CnfOutcome want = SolveCnf(&fresh, cnf);
    reused.Reset();
    CnfOutcome got = SolveCnf(&reused, cnf);
    ASSERT_EQ(got.result, want.result) << "round " << round;
    EXPECT_EQ(got.model, want.model) << "round " << round;
    EXPECT_EQ(got.conflicts, want.conflicts) << "round " << round;
    EXPECT_EQ(got.decisions, want.decisions) << "round " << round;
    EXPECT_EQ(got.num_clauses, want.num_clauses) << "round " << round;
    ++verdicts[static_cast<int>(want.result)];
    total_conflicts += want.conflicts;
  }
  // The sequence really exercised search: every verdict, many conflicts.
  EXPECT_GT(verdicts[static_cast<int>(SatResult::kSat)], 20);
  EXPECT_GT(verdicts[static_cast<int>(SatResult::kUnsat)], 20);
  EXPECT_GT(verdicts[static_cast<int>(SatResult::kUnknown)], 5);
  EXPECT_GT(total_conflicts, 1000u);
}

// --- Bit-blaster -------------------------------------------------------------

class BitblastTest : public ::testing::Test {
 protected:
  // Asserts e == expected is satisfiable and e != expected is not.
  void ExpectForced(ExprRef e, uint64_t expected) {
    {
      SatSolver sat;
      Bitblaster blaster(&sat);
      blaster.AssertTrue(ctx_.Eq(e, ctx_.Const(expected, e->width())));
      EXPECT_EQ(sat.Solve(), SatResult::kSat) << ExprToString(e);
    }
    {
      SatSolver sat;
      Bitblaster blaster(&sat);
      blaster.AssertTrue(ctx_.Ne(e, ctx_.Const(expected, e->width())));
      EXPECT_EQ(sat.Solve(), SatResult::kUnsat) << ExprToString(e);
    }
  }

  ExprContext ctx_;
};

TEST_F(BitblastTest, ConstantsForceThemselves) {
  ExpectForced(ctx_.Const(0xDEADBEEF, 32), 0xDEADBEEF);
}

TEST_F(BitblastTest, VariableEqualityFindsModel) {
  ExprRef x = ctx_.Var(32, "x");
  SatSolver sat;
  Bitblaster blaster(&sat);
  blaster.AssertTrue(ctx_.Eq(x, ctx_.Const(12345, 32)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(x->var_id()), 12345u);
}

TEST_F(BitblastTest, AdditionRelation) {
  ExprRef x = ctx_.Var(16, "x");
  ExprRef y = ctx_.Var(16, "y");
  SatSolver sat;
  Bitblaster blaster(&sat);
  blaster.AssertTrue(ctx_.Eq(ctx_.Add(x, y), ctx_.Const(100, 16)));
  blaster.AssertTrue(ctx_.Eq(x, ctx_.Const(58, 16)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(y->var_id()), 42u);
}

TEST_F(BitblastTest, MultiplicationInverse) {
  ExprRef x = ctx_.Var(16, "x");
  SatSolver sat;
  Bitblaster blaster(&sat);
  // x * 7 == 91 -> x == 13 (unique in 16 bits? 7 is odd => invertible mod 2^16,
  // so yes, unique).
  blaster.AssertTrue(ctx_.Eq(ctx_.Mul(x, ctx_.Const(7, 16)), ctx_.Const(91, 16)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(x->var_id()), 13u);
}

TEST_F(BitblastTest, DivisionRelation) {
  ExprRef x = ctx_.Var(8, "x");
  SatSolver sat;
  Bitblaster blaster(&sat);
  // x / 10 == 7 and x % 10 == 3 -> x == 73.
  blaster.AssertTrue(ctx_.Eq(ctx_.UDiv(x, ctx_.Const(10, 8)), ctx_.Const(7, 8)));
  blaster.AssertTrue(ctx_.Eq(ctx_.URem(x, ctx_.Const(10, 8)), ctx_.Const(3, 8)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(x->var_id()), 73u);
}

TEST_F(BitblastTest, ShiftByVariableAmount) {
  ExprRef x = ctx_.Var(8, "x");
  ExprRef s = ctx_.Var(8, "s");
  SatSolver sat;
  Bitblaster blaster(&sat);
  // (x << s) == 0xA0 with x == 5 -> s == 5.
  blaster.AssertTrue(ctx_.Eq(ctx_.Shl(x, s), ctx_.Const(0xA0, 8)));
  blaster.AssertTrue(ctx_.Eq(x, ctx_.Const(5, 8)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(s->var_id()), 5u);
}

// Randomized soundness: build random expression trees, pick random inputs,
// assert (expr == eval(expr)) is SAT and verify the model evaluates right.
TEST_F(BitblastTest, RandomExpressionsRoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    ExprContext ctx;
    ExprRef x = ctx.Var(8, "x");
    ExprRef y = ctx.Var(8, "y");
    std::vector<ExprRef> pool = {x, y, ctx.Const(rng.Next() & 0xFF, 8),
                                 ctx.Const(rng.Next() & 0xFF, 8)};
    for (int i = 0; i < 12; ++i) {
      ExprRef a = pool[rng.NextBelow(pool.size())];
      ExprRef b = pool[rng.NextBelow(pool.size())];
      ExprRef e = nullptr;
      switch (rng.NextBelow(10)) {
        case 0:
          e = ctx.Add(a, b);
          break;
        case 1:
          e = ctx.Sub(a, b);
          break;
        case 2:
          e = ctx.Mul(a, b);
          break;
        case 3:
          e = ctx.And(a, b);
          break;
        case 4:
          e = ctx.Or(a, b);
          break;
        case 5:
          e = ctx.Xor(a, b);
          break;
        case 6:
          e = ctx.Shl(a, ctx.Const(rng.NextBelow(10), 8));
          break;
        case 7:
          e = ctx.UDiv(a, b);
          break;
        case 8:
          e = ctx.Ite(ctx.Ult(a, b), a, b);
          break;
        default:
          e = ctx.URem(a, b);
          break;
      }
      pool.push_back(e);
    }
    ExprRef root = pool.back();
    Assignment inputs;
    inputs.Set(x->var_id(), rng.Next() & 0xFF);
    inputs.Set(y->var_id(), rng.Next() & 0xFF);
    uint64_t expected = EvalExpr(root, inputs);

    SatSolver sat;
    Bitblaster blaster(&sat);
    blaster.AssertTrue(ctx.Eq(x, ctx.Const(inputs.Get(x->var_id()), 8)));
    blaster.AssertTrue(ctx.Eq(y, ctx.Const(inputs.Get(y->var_id()), 8)));
    blaster.AssertTrue(ctx.Eq(root, ctx.Const(expected, root->width())));
    EXPECT_EQ(sat.Solve(), SatResult::kSat) << "round " << round;
  }
}

// --- Interval analysis --------------------------------------------------------

TEST(IntervalTest, ConstIsExact) {
  ExprContext ctx;
  std::unordered_map<ExprRef, Interval> memo;
  Interval iv = ComputeInterval(ctx.Const(7, 32), &memo);
  EXPECT_EQ(iv.lo, 7u);
  EXPECT_EQ(iv.hi, 7u);
}

TEST(IntervalTest, ZExtOfByteBoundsComparison) {
  ExprContext ctx;
  ExprRef x = ctx.Var(8, "x");
  ExprRef wide = ctx.ZExt(x, 32);
  // zext8(x) < 0x1000 is a tautology.
  EXPECT_EQ(QuickCheck(ctx.Ult(wide, ctx.Const(0x1000, 32))), QuickAnswer::kAlwaysTrue);
  // zext8(x) == 0x500 is impossible (already folded by the builder, but the
  // interval path must agree for un-folded shapes).
  EXPECT_EQ(QuickCheck(ctx.Ult(ctx.Const(0x1000, 32), wide)), QuickAnswer::kAlwaysFalse);
}

TEST(IntervalTest, UnknownWhenRangesOverlap) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  EXPECT_EQ(QuickCheck(ctx.Ult(x, ctx.Const(5, 32))), QuickAnswer::kUnknown);
}

TEST(IntervalTest, AndBoundedByOperands) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef masked = ctx.And(x, ctx.Const(0xFF, 32));
  EXPECT_EQ(QuickCheck(ctx.Ule(masked, ctx.Const(0xFF, 32))), QuickAnswer::kAlwaysTrue);
}

// --- Solver facade -------------------------------------------------------------

class SolverTest : public ::testing::Test {
 protected:
  SolverTest() : solver_(&ctx_) {}
  ExprContext ctx_;
  Solver solver_;
};

TEST_F(SolverTest, EmptyConstraintsAreSat) {
  EXPECT_TRUE(solver_.IsSatisfiable({}, nullptr));
}

TEST_F(SolverTest, SimpleBranchQueries) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(10, 32))};
  ExprRef cond = ctx_.Eq(x, ctx_.Const(5, 32));
  EXPECT_TRUE(solver_.MayBeTrue(constraints, cond));
  EXPECT_TRUE(solver_.MayBeFalse(constraints, cond));
  EXPECT_FALSE(solver_.MustBeTrue(constraints, cond));
  ExprRef impossible = ctx_.Eq(x, ctx_.Const(50, 32));
  EXPECT_FALSE(solver_.MayBeTrue(constraints, impossible));
  EXPECT_TRUE(solver_.MustBeFalse(constraints, impossible));
}

TEST_F(SolverTest, ContradictoryConstraintsUnsat) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(10, 32)),
                                      ctx_.Ult(ctx_.Const(20, 32), x)};
  EXPECT_FALSE(solver_.IsSatisfiable(constraints, nullptr));
}

TEST_F(SolverTest, GetValueRespectsConstraints) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(100, 32)),
                                      ctx_.Ult(ctx_.Const(90, 32), x)};
  std::optional<uint64_t> value = solver_.GetValue(constraints, x);
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(*value, 90u);
  EXPECT_LT(*value, 100u);
}

TEST_F(SolverTest, GetInitialValuesSolvesIndependentComponents) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  ExprRef z = ctx_.Var(32, "z");
  std::vector<ExprRef> constraints = {
      ctx_.Eq(x, ctx_.Const(3, 32)),
      ctx_.Eq(ctx_.Add(y, z), ctx_.Const(10, 32)),
  };
  Assignment model;
  ASSERT_TRUE(solver_.GetInitialValues(constraints, &model));
  EXPECT_EQ(model.Get(x->var_id()), 3u);
  EXPECT_EQ(MaskToWidth(model.Get(y->var_id()) + model.Get(z->var_id()), 32), 10u);
}

TEST_F(SolverTest, CacheHitsOnRepeatedQuery) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(10, 32))};
  ExprRef cond = ctx_.Eq(x, ctx_.Const(5, 32));
  EXPECT_TRUE(solver_.MayBeTrue(constraints, cond));
  uint64_t sat_calls = solver_.stats().sat_calls;
  EXPECT_TRUE(solver_.MayBeTrue(constraints, cond));
  EXPECT_EQ(solver_.stats().sat_calls, sat_calls);
  EXPECT_GT(solver_.stats().cache_hits, 0u);
}

TEST_F(SolverTest, SlicingIgnoresUnrelatedConstraints) {
  // y's constraints must not be bit-blasted when querying about x.
  ExprRef x = ctx_.Var(8, "x");
  std::vector<ExprRef> constraints;
  for (int i = 0; i < 30; ++i) {
    ExprRef y = ctx_.Var(32, "unrelated");
    constraints.push_back(ctx_.Ult(y, ctx_.Const(1000 + i, 32)));
  }
  constraints.push_back(ctx_.Ult(x, ctx_.Const(5, 8)));
  uint64_t vars_before = solver_.stats().total_sat_vars;
  EXPECT_TRUE(solver_.MayBeTrue(constraints, ctx_.Eq(x, ctx_.Const(3, 8))));
  uint64_t vars_used = solver_.stats().total_sat_vars - vars_before;
  // 8-bit x plus gates: far fewer than 30 * 32-bit unrelated vars.
  EXPECT_LT(vars_used, 300u);
}

TEST_F(SolverTest, QuickPathAvoidsSat) {
  ExprRef x = ctx_.Var(8, "x");
  std::vector<ExprRef> constraints;
  uint64_t sat_calls = solver_.stats().sat_calls;
  // zext(x) < 0x1000 is decided by intervals.
  EXPECT_TRUE(
      solver_.MayBeTrue(constraints, ctx_.Ult(ctx_.ZExt(x, 32), ctx_.Const(0x1000, 32))));
  EXPECT_EQ(solver_.stats().sat_calls, sat_calls);
}

// Randomized end-to-end: random small constraint systems; SAT answers checked
// by evaluating the model, UNSAT answers checked by brute force.
TEST(SolverPropertyTest, RandomSystemsAgainstBruteForce) {
  Rng rng(31337);
  for (int round = 0; round < 40; ++round) {
    ExprContext ctx;
    Solver solver(&ctx);
    ExprRef x = ctx.Var(6, "x");
    ExprRef y = ctx.Var(6, "y");
    std::vector<ExprRef> constraints;
    int n = 2 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < n; ++i) {
      ExprRef a = rng.NextBelow(2) == 0 ? x : y;
      ExprRef b = rng.NextBelow(3) == 0 ? (a == x ? y : x)
                                        : ctx.Const(rng.NextBelow(64), 6);
      ExprRef c = nullptr;
      switch (rng.NextBelow(4)) {
        case 0:
          c = ctx.Ult(a, b);
          break;
        case 1:
          c = ctx.Eq(ctx.And(a, ctx.Const(rng.NextBelow(64), 6)), ctx.Const(rng.NextBelow(64), 6));
          break;
        case 2:
          c = ctx.Eq(ctx.Add(a, b), ctx.Const(rng.NextBelow(64), 6));
          break;
        default:
          c = ctx.Ule(b, a);
          break;
      }
      constraints.push_back(c);
    }
    // Brute force ground truth.
    bool expect_sat = false;
    for (uint32_t xv = 0; xv < 64 && !expect_sat; ++xv) {
      for (uint32_t yv = 0; yv < 64; ++yv) {
        Assignment a;
        a.Set(x->var_id(), xv);
        a.Set(y->var_id(), yv);
        bool all = true;
        for (ExprRef c : constraints) {
          if (!EvalBool(c, a)) {
            all = false;
            break;
          }
        }
        if (all) {
          expect_sat = true;
          break;
        }
      }
    }
    Assignment model;
    bool got_sat = solver.IsSatisfiable(constraints, nullptr, &model);
    EXPECT_EQ(got_sat, expect_sat) << "round " << round;
    if (got_sat && expect_sat) {
      for (ExprRef c : constraints) {
        EXPECT_TRUE(EvalBool(c, model)) << "round " << round;
      }
    }
  }
}


// --- known-bits analysis ----------------------------------------------------------

TEST(KnownBitsTest, ConstIsExact) {
  ExprContext ctx;
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(ctx.Const(0xA5, 8), &memo);
  EXPECT_TRUE(kb.IsExact());
  EXPECT_EQ(kb.ExactValue(), 0xA5u);
}

TEST(KnownBitsTest, MaskingDeterminesClearBits) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef masked = ctx.And(x, ctx.Const(0x0F, 32));
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(masked, &memo);
  EXPECT_EQ(kb.known_zero, 0xFFFFFFF0u);  // high bits provably clear
  EXPECT_EQ(kb.known_one, 0u);
}

TEST(KnownBitsTest, OrSetsBits) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(ctx.Or(x, ctx.Const(0x80000001u, 32)), &memo);
  EXPECT_EQ(kb.known_one, 0x80000001u);
}

TEST(KnownBitsTest, ShiftIntroducesZeros) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(ctx.Shl(x, ctx.Const(4, 32)), &memo);
  EXPECT_EQ(kb.known_zero & 0xF, 0xFu);  // low 4 bits are zero
}

TEST(KnownBitsTest, QuickCheckDecidesMaskedFlagConditions) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  // ((x | 4) & 4) == 4 is a tautology the intervals can't see.
  ExprRef flag = ctx.And(ctx.Or(x, ctx.Const(4, 32)), ctx.Const(4, 32));
  EXPECT_EQ(QuickCheck(ctx.Eq(flag, ctx.Const(4, 32))), QuickAnswer::kAlwaysTrue);
  // ((x << 4) & 1) == 1 is impossible.
  ExprRef low = ctx.And(ctx.Shl(x, ctx.Const(4, 32)), ctx.Const(1, 32));
  EXPECT_EQ(QuickCheck(ctx.Eq(low, ctx.Const(1, 32))), QuickAnswer::kAlwaysFalse);
}

// Property: known bits are sound — every claimed bit matches the evaluator
// on random assignments over random bitwise expression trees.
TEST(KnownBitsTest, RandomizedSoundness) {
  Rng rng(0xBB17);
  for (int round = 0; round < 60; ++round) {
    ExprContext ctx;
    ExprRef x = ctx.Var(16, "x");
    ExprRef y = ctx.Var(16, "y");
    std::vector<ExprRef> pool = {x, y, ctx.Const(rng.Next() & 0xFFFF, 16),
                                 ctx.Const(rng.Next() & 0xFFFF, 16)};
    for (int i = 0; i < 10; ++i) {
      ExprRef a = pool[rng.NextBelow(pool.size())];
      ExprRef b = pool[rng.NextBelow(pool.size())];
      switch (rng.NextBelow(7)) {
        case 0:
          pool.push_back(ctx.And(a, b));
          break;
        case 1:
          pool.push_back(ctx.Or(a, b));
          break;
        case 2:
          pool.push_back(ctx.Xor(a, b));
          break;
        case 3:
          pool.push_back(ctx.Not(a));
          break;
        case 4:
          pool.push_back(ctx.Add(a, b));
          break;
        case 5:
          pool.push_back(ctx.Shl(a, ctx.Const(rng.NextBelow(18), 16)));
          break;
        default:
          pool.push_back(ctx.LShr(a, ctx.Const(rng.NextBelow(18), 16)));
          break;
      }
    }
    ExprRef root = pool.back();
    std::unordered_map<ExprRef, KnownBits> memo;
    KnownBits kb = ComputeKnownBits(root, &memo);
    for (int trial = 0; trial < 50; ++trial) {
      Assignment a;
      a.Set(x->var_id(), rng.Next());
      a.Set(y->var_id(), rng.Next());
      uint64_t value = EvalExpr(root, a);
      ASSERT_EQ(value & kb.known_one, kb.known_one)
          << "claimed-one bit was zero (round " << round << ")";
      ASSERT_EQ(value & kb.known_zero, 0u)
          << "claimed-zero bit was one (round " << round << ")";
    }
  }
}

// --- Per-query deadline (resource governor) ---------------------------------

// A chain of 32-bit multiplications equated to an unlikely constant: no
// interval/known-bits shortcut applies, and bit-blasted multiplier circuits
// make the SAT instance expensive enough that a ~zero deadline always trips.
std::vector<ExprRef> HostileConstraints(ExprContext* ctx, int chain) {
  ExprRef x = ctx->Var(32, "hostile_x");
  ExprRef y = ctx->Var(32, "hostile_y");
  ExprRef acc = x;
  for (int i = 0; i < chain; ++i) {
    acc = ctx->Mul(acc, i % 2 == 0 ? y : x);
  }
  return {ctx->Eq(acc, ctx->Const(0xDEADBEEF, 32)), ctx->Ne(x, ctx->Const(0, 32)),
          ctx->Ne(y, ctx->Const(0, 32))};
}

TEST(SolverDeadlineTest, TimedOutQueryDegradesToConservativeSat) {
  ExprContext ctx;
  SolverConfig config;
  config.max_query_ms = 1;
  config.conflict_budget = 0;  // only the deadline can stop it
  config.enable_cache = false;
  Solver solver(&ctx, config);
  // Conservative degradation: timeout answers "satisfiable" (never drops a
  // feasible path) and is counted.
  EXPECT_TRUE(solver.IsSatisfiable(HostileConstraints(&ctx, 24), nullptr));
  EXPECT_GT(solver.stats().query_timeouts, 0u);
  EXPECT_EQ(solver.stats().query_timeouts, solver.stats().unknown_results);
}

TEST(SolverDeadlineTest, GetValueStillProducesAValueOnTimeout) {
  ExprContext ctx;
  SolverConfig config;
  config.max_query_ms = 1;
  config.conflict_budget = 0;
  config.enable_cache = false;
  Solver solver(&ctx, config);
  std::vector<ExprRef> constraints = HostileConstraints(&ctx, 24);
  // GetValue degrades to evaluation under the partial/empty model: still a
  // concrete value (the engine concretizes with it), never a hang.
  std::optional<uint64_t> v = solver.GetValue(constraints, constraints[0]);
  EXPECT_TRUE(v.has_value());
}

TEST(SolverDeadlineTest, NoDeadlineMeansNoTimeouts) {
  ExprContext ctx;
  SolverConfig config;  // max_query_ms = 0
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(8, "x");
  EXPECT_TRUE(solver.IsSatisfiable({ctx.Eq(x, ctx.Const(3, 8))}, nullptr));
  EXPECT_EQ(solver.stats().query_timeouts, 0u);
}

// --- Model-reuse fast path ---------------------------------------------------

TEST(SolverModelReuseTest, SecondQuerySatisfiedByPriorModelSkipsSat) {
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  // First query bit-blasts and leaves a model with x == 5.
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_EQ(solver.stats().sat_calls, 1u);
  // x != 7 holds under x == 5: answered by evaluation, no second SAT call.
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Not(ctx.Eq(x, ctx.Const(7, 32)))));
  EXPECT_EQ(solver.stats().sat_calls, 1u);
  EXPECT_EQ(solver.stats().model_reuse_hits, 1u);
}

TEST(SolverModelReuseTest, StaleModelFallsThroughToSat) {
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  // x == 7 is false under the cached x == 5 model but satisfiable: the reuse
  // check must not turn a reusable-model miss into an unsat answer.
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(7, 32))));
  EXPECT_EQ(solver.stats().sat_calls, 2u);
  EXPECT_EQ(solver.stats().model_reuse_hits, 0u);
}

TEST(SolverModelReuseTest, DisabledConfigNeverReuses) {
  ExprContext ctx;
  SolverConfig config;
  config.enable_model_reuse = false;
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(32, "x");
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Not(ctx.Eq(x, ctx.Const(7, 32)))));
  EXPECT_EQ(solver.stats().sat_calls, 2u);
  EXPECT_EQ(solver.stats().model_reuse_hits, 0u);
}

TEST(SolverModelReuseTest, ModelRequestingQueriesBypassReuse) {
  // Callers that concretize from the returned model must get exactly what a
  // fresh solve produces; reuse only serves yes/no queries.
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  Assignment model;
  ExprRef gt3 = ctx.Ult(ctx.Const(3, 32), x);
  EXPECT_TRUE(solver.IsSatisfiable({}, gt3, &model));
  EXPECT_EQ(solver.stats().model_reuse_hits, 0u);
  EXPECT_TRUE(EvalBool(gt3, model));
}

TEST(SolverStatsTest, AccumulateSumsCountersAndMaxesQueryTime) {
  SolverStats a;
  a.queries = 10;
  a.sat_calls = 4;
  a.model_reuse_hits = 2;
  a.aborted_queries = 1;
  a.shared_cache_hits = 3;
  a.shared_cache_fastpath_hits = 1;
  a.shared_cache_misses = 6;
  a.shared_cache_stores = 5;
  a.shared_cache_verify_failures = 1;
  a.max_query_wall_ms = 7.5;
  SolverStats b;
  b.queries = 3;
  b.sat_calls = 1;
  b.model_reuse_hits = 5;
  b.aborted_queries = 2;
  b.shared_cache_hits = 2;
  b.shared_cache_fastpath_hits = 4;
  b.shared_cache_misses = 1;
  b.shared_cache_stores = 2;
  b.shared_cache_verify_failures = 3;
  b.max_query_wall_ms = 2.5;
  a.Accumulate(b);
  EXPECT_EQ(a.queries, 13u);
  EXPECT_EQ(a.sat_calls, 5u);
  EXPECT_EQ(a.model_reuse_hits, 7u);
  EXPECT_EQ(a.aborted_queries, 3u);
  EXPECT_EQ(a.shared_cache_hits, 5u);
  EXPECT_EQ(a.shared_cache_fastpath_hits, 5u);
  EXPECT_EQ(a.shared_cache_misses, 7u);
  EXPECT_EQ(a.shared_cache_stores, 7u);
  EXPECT_EQ(a.shared_cache_verify_failures, 4u);
  EXPECT_DOUBLE_EQ(a.max_query_wall_ms, 7.5);  // max, not sum
}

// --- Per-solver cache collision safety ---------------------------------------

TEST(SolverCacheCollisionTest, CollidingKeysNeverServeAnotherQuerysVerdict) {
  // testing_collide_cache_keys collapses every cache key to one bucket, so
  // every query after the first is a hash collision. Entries must be trusted
  // only after the full sorted-constraint-set compare.
  ExprContext ctx;
  SolverConfig config;
  config.testing_collide_cache_keys = true;
  config.enable_model_reuse = false;  // isolate the cache
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(32, "x");
  std::vector<ExprRef> sat_set = {ctx.Eq(x, ctx.Const(1, 32))};
  std::vector<ExprRef> unsat_set = {ctx.Eq(x, ctx.Const(1, 32)),
                                    ctx.Eq(ctx.Add(x, x), ctx.Const(7, 32))};

  EXPECT_TRUE(solver.IsSatisfiable(sat_set, nullptr));
  // Collides with the cached sat entry; a key-only cache would answer "sat".
  EXPECT_FALSE(solver.IsSatisfiable(unsat_set, nullptr));
  // Both verdicts are now cached under the same key and still distinguishable.
  uint64_t sat_calls = solver.stats().sat_calls;
  EXPECT_TRUE(solver.IsSatisfiable(sat_set, nullptr));
  EXPECT_FALSE(solver.IsSatisfiable(unsat_set, nullptr));
  EXPECT_EQ(solver.stats().sat_calls, sat_calls);
  EXPECT_GE(solver.stats().cache_hits, 2u);
}

// --- Cooperative cancellation (campaign watchdog path) ----------------------

TEST(SolverAbortTest, AbortFlagTurnsSolvesIntoConservativeUnknowns) {
  ExprContext ctx;
  Solver solver(&ctx);
  std::atomic<bool> abort_flag{true};
  solver.SetAbortFlag(&abort_flag);
  ExprRef x = ctx.Var(32, "x");

  // With the flag raised the query never reaches the SAT core; it degrades to
  // "maybe satisfiable" (the same safe over-approximation as a timeout).
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_GE(solver.stats().aborted_queries, 1u);
  EXPECT_GE(solver.stats().unknown_results, 1u);
  EXPECT_EQ(solver.stats().sat_calls, 0u);
  uint64_t aborted = solver.stats().aborted_queries;

  // Lowering the flag restores real solving.
  abort_flag.store(false);
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_EQ(solver.stats().aborted_queries, aborted);
  EXPECT_GE(solver.stats().sat_calls, 1u);
}

// --- Reuse: one Solver's SAT pipeline serves every query ---------------------

// A random width-1 constraint over `vars`: a comparison between two random
// arithmetic terms, widths reconciled by extension or extraction.
ExprRef RandomConstraint(ExprContext* ctx, const std::vector<ExprRef>& vars, Rng* rng) {
  auto fit = [&](ExprRef v, uint8_t width) {
    if (v->width() < width) {
      return rng->NextBelow(2) == 0 ? ctx->ZExt(v, width) : ctx->SExt(v, width);
    }
    if (v->width() > width) {
      return ctx->Extract(v, static_cast<uint32_t>(rng->NextBelow(v->width() - width + 1)),
                          width);
    }
    return v;
  };
  auto term = [&](uint8_t width) {
    ExprRef v = fit(vars[rng->NextBelow(vars.size())], width);
    // The second operand: a constant, or another variable's bits.
    ExprRef k = rng->NextBelow(2) == 0 ? ctx->Const(rng->Next(), width)
                                       : fit(vars[rng->NextBelow(vars.size())], width);
    switch (rng->NextBelow(12)) {
      case 0:
        return ctx->Add(v, k);
      case 1:
        return ctx->Sub(k, v);
      case 2:
        return ctx->Mul(v, k);
      case 3:
        return ctx->And(v, k);
      case 4:
        return ctx->Xor(v, ctx->Or(v, k));
      case 5:
        return ctx->LShr(v, ctx->Const(rng->NextBelow(width), width));
      case 6:
        return ctx->AShr(v, ctx->And(v, ctx->Const(7, width)));
      case 7:
        return ctx->UDiv(v, ctx->Or(k, ctx->Const(1, width)));
      case 8:
        return ctx->SRem(v, k);
      case 9:
        return ctx->Ite(ctx->Slt(v, k), v, k);
      case 10:
        return ctx->Shl(v, v);
      default:
        return v;
    }
  };
  // Terms stay at most 32 bits wide (the 64-bit variable enters through
  // extraction), which keeps multiplier and divider circuits test-sized.
  static const uint8_t kWidths[] = {8, 16, 32};
  uint8_t width = kWidths[rng->NextBelow(3)];
  ExprRef a = term(width);
  ExprRef b = rng->NextBelow(2) == 0 ? term(width) : ctx->Const(rng->Next(), width);
  switch (rng->NextBelow(5)) {
    case 0:
      return ctx->Eq(a, b);
    case 1:
      return ctx->Ult(a, b);
    case 2:
      return ctx->Ule(a, b);
    case 3:
      return ctx->Slt(a, b);
    default:
      return ctx->Sle(a, b);
  }
}

TEST(SolverReuseTest, ReusedSolverModelsMatchAFreshPipelinePerQuery) {
  Rng rng(4242);
  ExprContext ctx;
  SolverConfig config;
  config.enable_cache = false;  // every query reaches SAT
  Solver solver(&ctx, config);
  std::vector<ExprRef> vars = {ctx.Var(8, "a"), ctx.Var(16, "b"), ctx.Var(32, "c"),
                               ctx.Var(64, "d")};
  int sat_queries = 0;
  int unsat_queries = 0;
  for (int round = 0; round < 120; ++round) {
    std::vector<ExprRef> constraints;
    for (uint64_t i = 1 + rng.NextBelow(4); i > 0; --i) {
      ExprRef c = RandomConstraint(&ctx, vars, &rng);
      if (!c->IsConst()) {
        constraints.push_back(c);
      }
    }
    if (constraints.empty()) {
      continue;
    }
    Assignment got;
    bool sat = solver.IsSatisfiable(constraints, nullptr, &got);

    SatSolver fresh_sat;
    Bitblaster fresh_blaster(&fresh_sat);
    for (ExprRef c : constraints) {
      fresh_blaster.AssertTrue(c);
    }
    SatResult want = fresh_sat.Solve({}, config.conflict_budget);
    ASSERT_NE(want, SatResult::kUnknown) << "round " << round;
    ASSERT_EQ(sat, want == SatResult::kSat) << "round " << round;
    if (sat) {
      ++sat_queries;
      EXPECT_EQ(got.values(), fresh_blaster.ExtractModel().values()) << "round " << round;
    } else {
      ++unsat_queries;
    }
  }
  EXPECT_EQ(solver.stats().sat_calls, static_cast<uint64_t>(sat_queries + unsat_queries));
  EXPECT_GT(sat_queries, 20);
  EXPECT_GT(unsat_queries, 5);
}

// Fresh-solver models for a fixed stream of random queries, folded into a
// digest. Most of these queries leave variables free, and the search decides
// free variables in SAT-variable order, so the models follow variable
// numbering: any change to operand or gate encoding order moves the digest
// even when clause and variable counts stay put.
uint64_t RandomQueryModelDigest() {
  Rng rng(777);
  uint64_t digest = 0xCBF29CE484222325ull;
  auto fold = [&digest](uint64_t value) {
    digest ^= value;
    digest *= 0x100000001B3ull;
  };
  for (int round = 0; round < 200; ++round) {
    ExprContext ctx;
    Solver solver(&ctx);
    std::vector<ExprRef> vars = {ctx.Var(8, "a"), ctx.Var(16, "b"), ctx.Var(32, "c"),
                                 ctx.Var(64, "d")};
    std::vector<ExprRef> constraints;
    for (uint64_t i = 1 + rng.NextBelow(3); i > 0; --i) {
      constraints.push_back(RandomConstraint(&ctx, vars, &rng));
    }
    Assignment model;
    bool sat = solver.IsSatisfiable(constraints, nullptr, &model);
    fold(sat ? 1 : 0);
    for (ExprRef v : vars) {
      fold(model.Get(v->var_id()));
    }
  }
  return digest;
}

TEST(SolverCnfPinTest, RandomQueryModelsMatchTheRecordedDigest) {
  EXPECT_EQ(RandomQueryModelDigest(), 0xbd0a232bc6e2b9baull);
}

// The CNF every query is encoded into is pinned: the SAT-call count, the
// variables and clauses they were given, the conflicts they took and the
// verdicts served by model reuse over a whole DDT run must not move when the
// solver's internals change. A change that alters encoding order or clause
// content (and with it the models the engine concretizes with) shows here
// first. Update the figures only for a deliberate encoding change.
TEST(SolverCnfPinTest, Rtl8029RunEncodesTheSameCnf) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_wall_ms = 120'000;
  config.engine.max_states = 512;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok()) << result.status().message();
  const SolverStats& stats = result.value().solver_stats;
  EXPECT_EQ(stats.sat_calls, 2365u);
  EXPECT_EQ(stats.total_sat_clauses, 1440320u);
  EXPECT_EQ(stats.total_sat_vars, 806663u);
  EXPECT_EQ(stats.total_conflicts, 53u);
  EXPECT_EQ(stats.model_reuse_hits, 451u);
}

}  // namespace
}  // namespace ddt
