#include "src/solver/bitblast.h"

#include <algorithm>

#include "src/support/check.h"

namespace ddt {

namespace {

// The order Encode visits a node's operands; returns how many it wrote to
// `order`. Operands are encoded before any gate of the node itself, and this
// order numbers their SAT variables, so it is part of the CNF: every query
// has always been encoded in exactly this order (changing it changes models,
// and with them the values the engine concretizes with).
int OperandOrder(ExprKind kind, int order[3]) {
  switch (kind) {
    case ExprKind::kConst:
    case ExprKind::kVar:
      return 0;
    case ExprKind::kNot:
    case ExprKind::kExtract:
    case ExprKind::kZExt:
    case ExprKind::kSExt:
      order[0] = 0;
      return 1;
    case ExprKind::kSDiv:
    case ExprKind::kSRem:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor:
    case ExprKind::kUle:
    case ExprKind::kSle:
      order[0] = 0;
      order[1] = 1;
      return 2;
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kUDiv:
    case ExprKind::kURem:
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
    case ExprKind::kEq:
    case ExprKind::kUlt:
    case ExprKind::kSlt:
    case ExprKind::kConcat:
      order[0] = 1;
      order[1] = 0;
      return 2;
    case ExprKind::kIte:
      order[0] = 0;
      order[1] = 2;
      order[2] = 1;
      return 3;
  }
  DDT_UNREACHABLE("bad expr kind");
}

}  // namespace

Bitblaster::Bits::Bits(LitSpan span) : size_(static_cast<uint32_t>(span.size())) {
  DDT_CHECK(span.size() <= kCapacity);
  std::copy(span.begin(), span.end(), lits_);
}

void Bitblaster::Bits::Resize(uint32_t size, SatLit fill) {
  DDT_CHECK(size <= kCapacity);
  for (uint32_t i = size_; i < size; ++i) {
    lits_[i] = fill;
  }
  size_ = size;
}

size_t Bitblaster::NodeTable::Home(ExprRef e) const {
  // Fibonacci hashing of the expression's structural hash.
  return static_cast<size_t>((e->hash() * 0x9E3779B97F4A7C15ull) >> 32) & (slots_.size() - 1);
}

const uint32_t* Bitblaster::NodeTable::Find(ExprRef e) const {
  if (slots_.empty()) {
    return nullptr;
  }
  size_t mask = slots_.size() - 1;
  for (size_t i = Home(e);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      return nullptr;
    }
    if (slot.expr == e) {
      return &slot.offset;
    }
  }
}

void Bitblaster::NodeTable::Insert(ExprRef e, uint32_t offset) {
  if (2 * (live_ + 1) > slots_.size()) {
    Grow();
  }
  size_t mask = slots_.size() - 1;
  size_t i = Home(e);
  while (slots_[i].epoch == epoch_) {
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{e, epoch_, offset};
  ++live_;
}

void Bitblaster::NodeTable::Clear() {
  live_ = 0;
  if (++epoch_ == 0) {
    // Epoch wrapped: stale slots could look live again, so wipe them.
    for (Slot& slot : slots_) {
      slot.epoch = 0;
    }
    epoch_ = 1;
  }
}

void Bitblaster::NodeTable::Grow() {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.resize(old.empty() ? 1024 : 2 * old.size());
  live_ = 0;
  for (const Slot& slot : old) {
    if (slot.epoch == epoch_) {
      Insert(slot.expr, slot.offset);
    }
  }
}

Bitblaster::Bitblaster(SatSolver* sat) : sat_(sat) { Reset(); }

void Bitblaster::Reset() {
  lits_.clear();
  cache_.Clear();
  var_bits_.clear();
  uint32_t true_var = sat_->NewVar();
  true_lit_ = MakeLit(true_var, false);
  sat_->AddUnit(true_lit_);
}

SatLit Bitblaster::FreshLit() { return MakeLit(sat_->NewVar(), false); }

Bitblaster::View Bitblaster::Store(LitSpan bits) {
  View view{static_cast<uint32_t>(lits_.size()), static_cast<uint32_t>(bits.size())};
  lits_.insert(lits_.end(), bits.begin(), bits.end());
  return view;
}

SatLit Bitblaster::GateAnd(SatLit a, SatLit b) {
  if (a == false_lit() || b == false_lit()) {
    return false_lit();
  }
  if (a == true_lit_) {
    return b;
  }
  if (b == true_lit_) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a == NegateLit(b)) {
    return false_lit();
  }
  SatLit o = FreshLit();
  sat_->AddTernary(NegateLit(a), NegateLit(b), o);
  sat_->AddBinary(a, NegateLit(o));
  sat_->AddBinary(b, NegateLit(o));
  return o;
}

SatLit Bitblaster::GateOr(SatLit a, SatLit b) {
  return NegateLit(GateAnd(NegateLit(a), NegateLit(b)));
}

SatLit Bitblaster::GateXor(SatLit a, SatLit b) {
  if (a == false_lit()) {
    return b;
  }
  if (b == false_lit()) {
    return a;
  }
  if (a == true_lit_) {
    return NegateLit(b);
  }
  if (b == true_lit_) {
    return NegateLit(a);
  }
  if (a == b) {
    return false_lit();
  }
  if (a == NegateLit(b)) {
    return true_lit_;
  }
  SatLit o = FreshLit();
  sat_->AddTernary(NegateLit(a), NegateLit(b), NegateLit(o));
  sat_->AddTernary(a, b, NegateLit(o));
  sat_->AddTernary(a, NegateLit(b), o);
  sat_->AddTernary(NegateLit(a), b, o);
  return o;
}

SatLit Bitblaster::GateMux(SatLit sel, SatLit if_true, SatLit if_false) {
  if (sel == true_lit_) {
    return if_true;
  }
  if (sel == false_lit()) {
    return if_false;
  }
  if (if_true == if_false) {
    return if_true;
  }
  SatLit o = FreshLit();
  sat_->AddTernary(NegateLit(sel), NegateLit(if_true), o);
  sat_->AddTernary(NegateLit(sel), if_true, NegateLit(o));
  sat_->AddTernary(sel, NegateLit(if_false), o);
  sat_->AddTernary(sel, if_false, NegateLit(o));
  return o;
}

SatLit Bitblaster::GateFullAdder(SatLit a, SatLit b, SatLit carry_in, SatLit* carry_out) {
  SatLit ab = GateXor(a, b);
  SatLit sum = GateXor(ab, carry_in);
  // carry = (a & b) | (carry_in & (a ^ b)); the carry_in term's gate is
  // built first (it fixes variable numbering).
  SatLit propagate = GateAnd(carry_in, ab);
  SatLit generate = GateAnd(a, b);
  *carry_out = GateOr(generate, propagate);
  return sum;
}

SatLit Bitblaster::GateOrMany(LitSpan lits) {
  SatLit acc = false_lit();
  for (size_t i = 0; i < lits.size(); ++i) {
    acc = GateOr(acc, lits[i]);
  }
  return acc;
}

SatLit Bitblaster::GateEq(LitSpan a, LitSpan b) {
  DDT_CHECK(a.size() == b.size());
  SatLit acc = true_lit_;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = GateAnd(acc, NegateLit(GateXor(a[i], b[i])));
  }
  return acc;
}

SatLit Bitblaster::GateUlt(LitSpan a, LitSpan b) {
  // a < b  <=>  no carry out of a + ~b + 1  <=>  borrow out of a - b.
  DDT_CHECK(a.size() == b.size());
  SatLit carry = true_lit_;
  for (size_t i = 0; i < a.size(); ++i) {
    SatLit nb = NegateLit(b[i]);
    SatLit ab = GateXor(a[i], nb);
    SatLit propagate = GateAnd(carry, ab);  // built first, as in the full adder
    SatLit generate = GateAnd(a[i], nb);
    carry = GateOr(generate, propagate);
  }
  return NegateLit(carry);
}

SatLit Bitblaster::GateSlt(LitSpan a, LitSpan b) {
  // Signed: flip sign bits and compare unsigned.
  Bits fa(a);
  Bits fb(b);
  fa.back() = NegateLit(fa.back());
  fb.back() = NegateLit(fb.back());
  return GateUlt(fa, fb);
}

Bitblaster::Bits Bitblaster::Add(LitSpan a, LitSpan b, SatLit carry_in, SatLit* carry_out) {
  DDT_CHECK(a.size() == b.size());
  Bits sum(a.size(), 0);
  SatLit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    sum[i] = GateFullAdder(a[i], b[i], carry, &carry);
  }
  if (carry_out != nullptr) {
    *carry_out = carry;
  }
  return sum;
}

Bitblaster::Bits Bitblaster::Negate(LitSpan a) {
  Bits inverted(a.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    inverted[i] = NegateLit(a[i]);
  }
  Bits zero(a.size(), false_lit());
  return Add(inverted, zero, true_lit_);
}

Bitblaster::Bits Bitblaster::Mul(LitSpan a, LitSpan b) {
  DDT_CHECK(a.size() == b.size());
  uint32_t w = static_cast<uint32_t>(a.size());
  Bits acc(w, false_lit());
  for (size_t i = 0; i < w; ++i) {
    // addend = (b << i) & a[i], truncated to w bits.
    Bits addend(w, false_lit());
    for (size_t j = i; j < w; ++j) {
      addend[j] = GateAnd(b[j - i], a[i]);
    }
    acc = Add(acc, addend, false_lit());
  }
  return acc;
}

void Bitblaster::UDivURem(LitSpan a, LitSpan b, Bits* quotient, Bits* remainder) {
  uint32_t w = static_cast<uint32_t>(a.size());
  // Fresh result vectors.
  Bits q(w, 0);
  Bits r(w, 0);
  for (size_t i = 0; i < w; ++i) {
    q[i] = FreshLit();
    r[i] = FreshLit();
  }
  SatLit b_zero = true_lit_;
  for (size_t i = 0; i < w; ++i) {
    b_zero = GateAnd(b_zero, NegateLit(b[i]));
  }
  // Case b == 0 (SMT-LIB): q = all-ones, r = a.
  for (size_t i = 0; i < w; ++i) {
    // b_zero -> q[i] == 1
    sat_->AddBinary(NegateLit(b_zero), q[i]);
    // b_zero -> r[i] == a[i]
    SatLit eq_bit = NegateLit(GateXor(r[i], a[i]));
    sat_->AddBinary(NegateLit(b_zero), eq_bit);
  }
  // Case b != 0: a == q*b + r computed at double width (no wraparound), r < b.
  Bits q2 = q;
  Bits b2(b);
  Bits r2 = r;
  Bits a2(a);
  q2.Resize(2 * w, false_lit());
  b2.Resize(2 * w, false_lit());
  r2.Resize(2 * w, false_lit());
  a2.Resize(2 * w, false_lit());
  Bits prod = Mul(q2, b2);
  Bits sum = Add(prod, r2, false_lit());
  SatLit exact = GateEq(sum, a2);
  SatLit r_lt_b = GateUlt(r, b);
  sat_->AddBinary(b_zero, exact);   // !b_zero -> exact
  sat_->AddBinary(b_zero, r_lt_b);  // !b_zero -> r < b
  *quotient = q;
  *remainder = r;
}

Bitblaster::Bits Bitblaster::Mux(SatLit sel, LitSpan if_true, LitSpan if_false) {
  DDT_CHECK(if_true.size() == if_false.size());
  Bits out(if_true.size(), 0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = GateMux(sel, if_true[i], if_false[i]);
  }
  return out;
}

Bitblaster::Bits Bitblaster::Shift(LitSpan value, LitSpan amount, ExprKind kind) {
  uint32_t w = static_cast<uint32_t>(value.size());
  SatLit fill = false_lit();
  if (kind == ExprKind::kAShr) {
    fill = value.back();  // sign bit
  }
  // Barrel shifter over the low log2(w) amount bits.
  size_t stages = 0;
  while ((1ull << stages) < w) {
    ++stages;
  }
  Bits current(value);
  for (size_t s = 0; s < stages && s < amount.size(); ++s) {
    size_t dist = 1ull << s;
    Bits shifted(w, fill);
    for (size_t i = 0; i < w; ++i) {
      if (kind == ExprKind::kShl) {
        if (i >= dist) {
          shifted[i] = current[i - dist];
        }
      } else {  // kLShr / kAShr
        if (i + dist < w) {
          shifted[i] = current[i + dist];
        }
      }
    }
    current = Mux(amount[s], shifted, current);
  }
  // Amount bits above the barrel range: if any is set, the result saturates
  // to all-fill.
  if (stages < amount.size()) {
    SatLit overflow = GateOrMany(amount.subspan(stages));
    Bits saturated(w, fill);
    current = Mux(overflow, saturated, current);
  }
  return current;
}

Bitblaster::View Bitblaster::Encode(ExprRef e) {
  if (const uint32_t* offset = cache_.Find(e)) {
    return View{*offset, e->width()};
  }
  int order[3];
  int num_ops = OperandOrder(e->kind(), order);
  View ops[3];
  for (int i = 0; i < num_ops; ++i) {
    ops[order[i]] = Encode(e->op(order[i]));
  }
  View bits = Lower(e, ops);
  DDT_CHECK(bits.size == e->width());
  cache_.Insert(e, bits.offset);
  return bits;
}

Bitblaster::View Bitblaster::Lower(ExprRef e, const View* ops) {
  uint8_t w = e->width();
  // Operand literals; valid until the result is stored (the arena only
  // grows in Store).
  LitSpan a = e->num_ops() > 0 ? At(ops[0]) : LitSpan();
  LitSpan b = e->num_ops() > 1 ? At(ops[1]) : LitSpan();
  switch (e->kind()) {
    case ExprKind::kConst: {
      Bits bits(w, 0);
      for (uint8_t i = 0; i < w; ++i) {
        bits[i] = ConstLit(((e->const_value() >> i) & 1) != 0);
      }
      return Store(bits);
    }
    case ExprKind::kVar: {
      // Var nodes are hash-consed per variable id, so the node cache already
      // keeps each variable's bits unique.
      Bits bits(w, 0);
      for (uint8_t i = 0; i < w; ++i) {
        bits[i] = FreshLit();
      }
      View view = Store(bits);
      var_bits_.push_back(VarBits{e->var_id(), view});
      return view;
    }
    case ExprKind::kAdd:
      return Store(Add(a, b, false_lit()));
    case ExprKind::kSub: {
      Bits inverted(b.size(), 0);
      for (size_t i = 0; i < b.size(); ++i) {
        inverted[i] = NegateLit(b[i]);
      }
      return Store(Add(a, inverted, true_lit_));
    }
    case ExprKind::kMul:
      return Store(Mul(a, b));
    case ExprKind::kUDiv:
    case ExprKind::kURem: {
      Bits q;
      Bits r;
      UDivURem(a, b, &q, &r);
      return Store(e->kind() == ExprKind::kUDiv ? q : r);
    }
    case ExprKind::kSDiv:
    case ExprKind::kSRem: {
      // Lower through unsigned division on absolute values with
      // sign-corrected results (wrap-around semantics match the evaluator).
      SatLit sign_a = a.back();
      SatLit sign_b = b.back();
      Bits abs_a = Mux(sign_a, Negate(a), a);
      Bits abs_b = Mux(sign_b, Negate(b), b);
      Bits q;
      Bits r;
      UDivURem(abs_a, abs_b, &q, &r);
      if (e->kind() == ExprKind::kSDiv) {
        SatLit diff_sign = GateXor(sign_a, sign_b);
        Bits result = Mux(diff_sign, Negate(q), q);
        // SMT-LIB sdiv-by-zero: 1 if a < 0, all-ones otherwise. The udiv
        // zero-case yields q = all-ones on |a|; patch the b == 0 case.
        SatLit b_zero = true_lit_;
        for (size_t i = 0; i < b.size(); ++i) {
          b_zero = GateAnd(b_zero, NegateLit(b[i]));
        }
        Bits one(a.size(), false_lit());
        one[0] = true_lit_;
        Bits all_ones(a.size(), true_lit_);
        Bits zero_case = Mux(sign_a, one, all_ones);
        return Store(Mux(b_zero, zero_case, result));
      }
      // srem: result has the sign of the dividend.
      Bits result = Mux(sign_a, Negate(r), r);
      SatLit b_zero = true_lit_;
      for (size_t i = 0; i < b.size(); ++i) {
        b_zero = GateAnd(b_zero, NegateLit(b[i]));
      }
      return Store(Mux(b_zero, a, result));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor: {
      Bits out(w, 0);
      for (uint8_t i = 0; i < w; ++i) {
        if (e->kind() == ExprKind::kAnd) {
          out[i] = GateAnd(a[i], b[i]);
        } else if (e->kind() == ExprKind::kOr) {
          out[i] = GateOr(a[i], b[i]);
        } else {
          out[i] = GateXor(a[i], b[i]);
        }
      }
      return Store(out);
    }
    case ExprKind::kNot: {
      Bits out(w, 0);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = NegateLit(a[i]);
      }
      return Store(out);
    }
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
      return Store(Shift(a, b, e->kind()));
    case ExprKind::kEq:
    case ExprKind::kUlt:
    case ExprKind::kUle:
    case ExprKind::kSlt:
    case ExprKind::kSle: {
      SatLit out;
      switch (e->kind()) {
        case ExprKind::kEq:
          out = GateEq(a, b);
          break;
        case ExprKind::kUlt:
          out = GateUlt(a, b);
          break;
        case ExprKind::kUle:
          out = NegateLit(GateUlt(b, a));
          break;
        case ExprKind::kSlt:
          out = GateSlt(a, b);
          break;
        default:
          out = NegateLit(GateSlt(b, a));
          break;
      }
      return Store(LitSpan(&out, 1));
    }
    case ExprKind::kIte:
      return Store(Mux(a[0], b, At(ops[2])));
    case ExprKind::kExtract:
      // A slice of the operand's literals: no new storage.
      return View{ops[0].offset + e->extract_low(), w};
    case ExprKind::kConcat: {
      // ops[0] is the high part, ops[1] the low part.
      Bits out(b);
      out.Resize(w, 0);
      for (uint32_t i = 0; i < a.size(); ++i) {
        out[b.size() + i] = a[i];
      }
      return Store(out);
    }
    case ExprKind::kZExt: {
      Bits out(a);
      out.Resize(w, false_lit());
      return Store(out);
    }
    case ExprKind::kSExt: {
      Bits out(a);
      out.Resize(w, a.back());
      return Store(out);
    }
  }
  DDT_UNREACHABLE("bad expr kind");
}

void Bitblaster::AssertTrue(ExprRef e) {
  DDT_CHECK(e->width() == 1);
  sat_->AddUnit(At(Encode(e))[0]);
}

Assignment Bitblaster::ExtractModel() const {
  Assignment model;
  for (const VarBits& var : var_bits_) {
    LitSpan bits = At(var.bits);
    uint64_t value = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      SatLit lit = bits[i];
      bool bit = sat_->ModelValue(LitVar(lit));
      if (LitNegated(lit)) {
        bit = !bit;
      }
      if (bit) {
        value |= 1ull << i;
      }
    }
    model.Set(var.var_id, value);
  }
  return model;
}

}  // namespace ddt
