// Tseitin bit-blasting of bitvector expressions into CNF over a SatSolver.
//
// Each expression node lowers to a run of SAT literals (LSB first). Gate
// outputs are fresh SAT variables constrained by Tseitin clauses. The
// translation is cached per Bitblaster instance, so shared DAG nodes are
// encoded once.
//
// Storage is built for reuse: every encoded node's literals live in one
// arena, the node cache is an open-addressing table cleared by bumping an
// epoch, and intermediate bit vectors are fixed-capacity stack values. A
// Bitblaster that is Reset between queries encodes without touching the
// allocator once its storage has grown to the working size.
#ifndef SRC_SOLVER_BITBLAST_H_
#define SRC_SOLVER_BITBLAST_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/expr/eval.h"
#include "src/expr/expr.h"
#include "src/solver/sat.h"

namespace ddt {

class Bitblaster {
 public:
  explicit Bitblaster(SatSolver* sat);

  // Forgets every encoded node and re-creates the constant-true literal,
  // exactly as construction does, keeping storage. Call it right after the
  // target SatSolver is Reset.
  void Reset();

  // Asserts that the width-1 expression `e` is true.
  void AssertTrue(ExprRef e);

  // After a kSat result, reads back concrete values for every expression
  // variable that was encoded. Variables never encoded are absent.
  Assignment ExtractModel() const;

  SatLit true_lit() const { return true_lit_; }
  SatLit false_lit() const { return NegateLit(true_lit_); }

 private:
  // A read-only run of literals, LSB first: a node's arena slice or a Bits.
  using LitSpan = std::span<const SatLit>;

  // A bit vector's literals held inline. Widths are at most 64 bits and
  // division lowers at double width, so 128 literals always suffice.
  class Bits {
   public:
    static constexpr uint32_t kCapacity = 128;
    Bits() = default;
    Bits(uint32_t size, SatLit fill) { Resize(size, fill); }
    explicit Bits(LitSpan span);
    uint32_t size() const { return size_; }
    SatLit& operator[](size_t i) { return lits_[i]; }
    SatLit operator[](size_t i) const { return lits_[i]; }
    SatLit& back() { return lits_[size_ - 1]; }
    // Grows with `fill` or truncates.
    void Resize(uint32_t size, SatLit fill);
    // Implicit on purpose: a Bits passes wherever a LitSpan is taken.
    operator LitSpan() const { return LitSpan(lits_, size_); }  // NOLINT

   private:
    uint32_t size_ = 0;
    SatLit lits_[kCapacity];
  };

  // An encoded node's literals: lits_[offset, offset + size).
  struct View {
    uint32_t offset = 0;
    uint32_t size = 0;
  };

  // Expression -> arena offset of its literals (the width is the
  // expression's). Linear probing over a power-of-two table; a slot is live
  // iff its epoch is the current one, so Clear is O(1).
  class NodeTable {
   public:
    const uint32_t* Find(ExprRef e) const;
    void Insert(ExprRef e, uint32_t offset);
    void Clear();

   private:
    struct Slot {
      ExprRef expr = nullptr;
      uint32_t epoch = 0;
      uint32_t offset = 0;
    };
    size_t Home(ExprRef e) const;
    void Grow();

    std::vector<Slot> slots_;
    uint32_t epoch_ = 1;
    size_t live_ = 0;
  };

  // An encoded expression variable (for model extraction).
  struct VarBits {
    uint32_t var_id;
    View bits;
  };

  SatLit FreshLit();
  SatLit ConstLit(bool value) { return value ? true_lit_ : false_lit(); }
  LitSpan At(View v) const { return LitSpan(lits_).subspan(v.offset, v.size); }
  // Appends `bits` to the arena.
  View Store(LitSpan bits);

  // Gate builders: return output literal constrained by Tseitin clauses.
  SatLit GateAnd(SatLit a, SatLit b);
  SatLit GateOr(SatLit a, SatLit b);
  SatLit GateXor(SatLit a, SatLit b);
  SatLit GateMux(SatLit sel, SatLit if_true, SatLit if_false);
  // Full adder: returns sum, sets *carry_out.
  SatLit GateFullAdder(SatLit a, SatLit b, SatLit carry_in, SatLit* carry_out);
  // N-ary OR of a literal list.
  SatLit GateOrMany(LitSpan lits);
  // Equality over bit vectors -> single literal.
  SatLit GateEq(LitSpan a, LitSpan b);
  // a <u b over bit vectors.
  SatLit GateUlt(LitSpan a, LitSpan b);
  SatLit GateSlt(LitSpan a, LitSpan b);

  Bits Add(LitSpan a, LitSpan b, SatLit carry_in, SatLit* carry_out = nullptr);
  Bits Negate(LitSpan a);
  Bits Mul(LitSpan a, LitSpan b);
  // Unsigned divide with SMT-LIB zero semantics; produces quotient and
  // remainder bit vectors related by fresh-variable constraints.
  void UDivURem(LitSpan a, LitSpan b, Bits* quotient, Bits* remainder);
  Bits Shift(LitSpan value, LitSpan amount, ExprKind kind);
  Bits Mux(SatLit sel, LitSpan if_true, LitSpan if_false);

  // Returns the literals of `e`, encoding it (operands first) on first use.
  View Encode(ExprRef e);
  // Lowers `e` whose operands are already encoded (`ops` indexed like
  // e->op()); stores and returns its literals. Not recursive, so the
  // stack-held Bits temporaries never pile up along a deep expression.
  View Lower(ExprRef e, const View* ops);

  SatSolver* sat_;
  SatLit true_lit_ = 0;
  std::vector<SatLit> lits_;  // arena: every encoded node's literals
  NodeTable cache_;
  std::vector<VarBits> var_bits_;  // in first-encoding order
};

}  // namespace ddt

#endif  // SRC_SOLVER_BITBLAST_H_
