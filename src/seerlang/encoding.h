/**
 * @file
 * SeerLang symbol encoding.
 *
 * SeerLang is the S-expression language that interfaces the IR with the
 * e-graph (Section 4.2 of the paper). Every operator symbol encodes the
 * operation name plus its static payload, separated by colons:
 *
 *   const:42:i32            integer/index literal
 *   constf:0x1.8p+1:f64     f64 literal (hex-float for exact round-trip)
 *   arg:a:memref<8xi32>     function argument leaf
 *   var:i                   loop induction variable leaf (index typed)
 *   arith.addi:i32          value op (type-annotated)
 *   arith.cmpi:slt:i32      compare (predicate + operand type)
 *   arith.extsi:i8:i32      cast (from + to types)
 *   memref.load:t7          tagged load   (children: mem, indices...)
 *   memref.store:t8         tagged store  (children: value, mem, idx...)
 *   memref.alloc:memref<4xi32>:t9  tagged allocation leaf
 *   affine.for:i:L3         loop (children: lb, ub, step, body)
 *   scf.if                  statement if (children: cond, then, else)
 *   scf.while:t4            while (children: cond-effects, cond, body)
 *   seq                     statement sequencing (children: a, b)
 *   nop                     empty statement
 *   func:name               function root (children: body)
 *
 * Memory operations carry a unique tag so that two textually identical
 * accesses at different program points can never be hash-consed together
 * (the paper instead assumes a dependence between every pair of memory
 * ops; the tag realizes exactly that ordering discipline).
 */
#ifndef SEER_SEERLANG_ENCODING_H_
#define SEER_SEERLANG_ENCODING_H_

#include <exception>
#include <string_view>
#include <vector>

#include "egraph/term.h"
#include "ir/type.h"

namespace seer::sl {

// Symbol comes from support/symbol.h (namespace seer).

// --- Op records ---------------------------------------------------------

/**
 * What a symbol denotes. The payload kinds (Const, ConstF, Arg, Var)
 * need the exact field count of their encoding; the statement kinds
 * (Load .. Func, kept last) are named by their op alone. Every other
 * symbol, malformed payload kinds included, is a Value op.
 */
enum class OpKind : uint8_t {
    Const, ConstF, Arg, Var, Value,
    Load, Store, Alloc, For, If, While, Seq, Nop, Func,
};

/**
 * A symbol decoded once: built on the first query for its id, then
 * shared by every thread for the life of the process (DESIGN.md,
 * "SeerLang op records"). Every view points into the symbol's interned
 * text, which never moves.
 */
class OpRecord
{
  public:
    /** Decode `symbol`. Never throws for a malformed payload: the
     *  failure is kept and rethrown by the payload accessors. */
    explicit OpRecord(Symbol symbol);

    OpKind kind = OpKind::Value;
    /** Statement (effect) rather than value: the kinds from Load on. */
    bool is_statement = false;
    /** The op name: "arith.addi" of "arith.addi:i32". */
    std::string_view name;
    /** The fields after the op name. */
    std::vector<std::string_view> fields;
    double float_value = 0;     ///< ConstF
    std::string_view arg_name;  ///< Arg
    std::string_view iv_name;   ///< For: its induction variable; Var
    /** The "var:<iv>" symbol: set for Var and for a For with both an
     *  iv and a loop id (a binder). */
    Symbol iv_var;
    std::string_view loop_id;   ///< For
    std::string_view tag;       ///< Load, Store, Alloc, While

    /**
     * Throw exactly what parsing the payload threw, when it failed:
     * std::stoll's std::invalid_argument / std::out_of_range for a
     * Const value, ir::parseType's FatalError for a type. The payload
     * accessors call it; a reader that needs only a well-formed
     * payload (an Arg's name) calls it directly.
     */
    void
    checkPayload() const
    {
        if (payload_error_)
            std::rethrow_exception(payload_error_);
    }
    /** False when the int value or the type failed to parse. */
    bool payloadOk() const { return !payload_error_; }

    /** A Const's value. */
    int64_t
    intValue() const
    {
        checkPayload();
        return int_value_;
    }
    /** Const, Arg and Alloc: their type. A value op: its last field,
     *  i.e. the result type (a cast's to-type, a compare's operand
     *  type). */
    const ir::Type &
    type() const
    {
        checkPayload();
        return type_;
    }

  private:
    void parsePayload();

    int64_t int_value_ = 0;
    ir::Type type_;
    std::exception_ptr payload_error_;
};

/** The op record of `symbol` (lock-free after the first query). */
const OpRecord &opRecord(Symbol symbol);

// --- Constants ----------------------------------------------------------

Symbol encodeIntConst(int64_t value, ir::Type type);
Symbol encodeFloatConst(double value);

// --- Leaves -------------------------------------------------------------

Symbol encodeArg(const std::string &name, ir::Type type);
Symbol encodeVar(const std::string &name);

// --- Value ops ----------------------------------------------------------

/** Generic value op: "<opname>:<field>:<field>..." */
Symbol encodeOp(const std::string &op_name,
                const std::vector<std::string> &fields);

/** The IR op name prefix of a symbol ("arith.addi" of "arith.addi:i32"). */
std::string_view opNameOf(Symbol symbol);

// --- Tagged memory / control symbols -----------------------------------

/** Fresh process-unique tag (t0, t1, ...). */
std::string freshTag();

/** Fresh loop id (L0, L1, ...). */
std::string freshLoopId();

/**
 * Deterministic fresh-name scope (RAII, per thread).
 *
 * While a scope is active on the current thread, freshTag()/
 * freshLoopId() draw from a stream derived from the scope's seed
 * ("t<seed-hex>x<n>" / "L<seed-hex>x<n>") instead of the process-global
 * counters. Seeding the scope with the *content hash* of the term being
 * worked on makes snippet evaluation a pure function of its inputs:
 * re-evaluating the same snippet — on any thread, in any order, in any
 * process — reproduces byte-identical tags and loop ids. That is what
 * lets the pass-outcome cache hand back a recorded replacement as if it
 * had just been computed, and what makes -j 1 and -j N explorations
 * bit-identical.
 *
 * Uniqueness discipline: global names are pure decimals ("t42"), scoped
 * names always contain the 'x' separator, and two scopes only share a
 * stream when their seeds collide — i.e. (for content-hash seeds) when
 * the snippets themselves are identical, in which case identical names
 * are exactly the intent. Scopes nest; the innermost wins.
 */
class NameScope
{
  public:
    explicit NameScope(uint64_t seed);
    ~NameScope();

    NameScope(const NameScope &) = delete;
    NameScope &operator=(const NameScope &) = delete;

  private:
    NameScope *previous_;
    uint64_t seed_;
    uint64_t next_ = 0;
    friend std::string freshTag();
    friend std::string freshLoopId();
};

Symbol encodeLoad(const std::string &tag);
Symbol encodeStore(const std::string &tag);
Symbol encodeAlloc(ir::Type type, const std::string &tag);
Symbol encodeFor(const std::string &iv_name, const std::string &loop_id);
Symbol encodeWhile(const std::string &tag);

/** True if the symbol denotes an affine.for term. */
bool isForSymbol(Symbol symbol);

/** Loop id field of an affine.for symbol. */
std::string_view loopIdOf(Symbol symbol);

/** Structural symbols. */
Symbol seqSymbol();
Symbol nopSymbol();
Symbol ifSymbol();
Symbol funcSymbol(const std::string &name);

/** True for symbols whose terms are statements (effects), not values. */
bool isStatementSymbol(Symbol symbol);

} // namespace seer::sl

#endif // SEER_SEERLANG_ENCODING_H_
