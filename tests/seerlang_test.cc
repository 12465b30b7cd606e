/** SeerLang translation tests: IR -> term -> IR round trips. */
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "benchmarks/benchmarks.h"
#include "core/seer.h"
#include "ir/interp.h"
#include "ir/ops.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "seerlang/encoding.h"
#include "seerlang/from_term.h"
#include "seerlang/to_term.h"
#include "support/error.h"
#include "support/rng.h"

namespace seer::sl {
namespace {

using namespace ir;

std::vector<int64_t>
runWithSeed(const Module &module, uint64_t seed)
{
    Operation *func = module.firstFunc();
    Block &body = func->region(0).block();
    std::vector<Buffer> buffers;
    std::vector<RtValue> args;
    Rng rng(seed);
    for (size_t i = 0; i < body.numArgs(); ++i) {
        Type t = body.arg(i).type();
        if (t.isMemRef()) {
            buffers.emplace_back(t);
        } else if (t.isIndex() || t.isInteger()) {
            args.push_back(rng.nextRange(0, 3));
        } else {
            args.push_back(rng.nextDouble());
        }
    }
    // Fill buffers and assemble args in order.
    size_t buffer_index = 0;
    std::vector<RtValue> final_args;
    size_t scalar_index = 0;
    for (size_t i = 0; i < body.numArgs(); ++i) {
        Type t = body.arg(i).type();
        if (t.isMemRef()) {
            Buffer &buffer = buffers[buffer_index++];
            for (auto &v : buffer.ints)
                v = rng.nextRange(-50, 50);
            for (auto &v : buffer.floats)
                v = rng.nextDouble();
            final_args.push_back(&buffer);
        } else {
            final_args.push_back(args[scalar_index++]);
        }
    }
    interpret(module, func->strAttr("sym_name"), std::move(final_args));
    std::vector<int64_t> out;
    for (const Buffer &buffer : buffers) {
        out.insert(out.end(), buffer.ints.begin(), buffer.ints.end());
        for (double d : buffer.floats)
            out.push_back(static_cast<int64_t>(d * 4096));
    }
    return out;
}

/** IR -> term -> IR round trip with equivalence checking. */
void
roundTrip(const std::string &text)
{
    Module before = parseModule(text);
    verifyOrDie(before);
    Translation translation = funcToTerm(*before.firstFunc());

    EmitSpec spec;
    spec.func_name = translation.func_name;
    spec.args = translation.args;
    Module after = termToFunc(translation.term, spec);
    std::string diag = verify(after);
    ASSERT_EQ(diag, "") << toString(after) << "\nterm: "
                        << translation.term->str();
    for (uint64_t seed : {1u, 7u, 99u}) {
        EXPECT_EQ(runWithSeed(before, seed), runWithSeed(after, seed))
            << "--- before\n" << toString(before) << "--- after\n"
            << toString(after) << "\nterm: " << translation.term->str();
    }
}

TEST(SeerLangEncodingTest, ConstRoundTrip)
{
    const OpRecord &decoded = opRecord(encodeIntConst(-7, Type::i32()));
    ASSERT_EQ(decoded.kind, OpKind::Const);
    EXPECT_EQ(decoded.intValue(), -7);
    EXPECT_EQ(decoded.type(), Type::i32());
    EXPECT_NE(opRecord(Symbol("var:x")).kind, OpKind::Const);
}

TEST(SeerLangEncodingTest, FloatConstExactRoundTrip)
{
    for (double value : {0.0, 1.5, -2.25, 0.1, 3.141592653589793}) {
        const OpRecord &decoded = opRecord(encodeFloatConst(value));
        ASSERT_EQ(decoded.kind, OpKind::ConstF);
        EXPECT_EQ(decoded.float_value, value); // exact via hex-float
    }
}

TEST(SeerLangEncodingTest, ArgVarHelpers)
{
    const OpRecord &arg =
        opRecord(encodeArg("x", Type::memref({4}, Type::i32())));
    ASSERT_EQ(arg.kind, OpKind::Arg);
    EXPECT_EQ(arg.arg_name, "x");
    EXPECT_EQ(arg.type().str(), "memref<4xi32>");
    const OpRecord &var = opRecord(encodeVar("i"));
    ASSERT_EQ(var.kind, OpKind::Var);
    EXPECT_EQ(var.iv_name, "i");
    EXPECT_NE(opRecord(Symbol("arg:a:i32")).kind, OpKind::Var);
}

TEST(SeerLangEncodingTest, TagsAreUnique)
{
    EXPECT_NE(freshTag(), freshTag());
    EXPECT_NE(freshLoopId(), freshLoopId());
}

TEST(SeerLangEncodingTest, LoopSymbolFields)
{
    Symbol s = encodeFor("i", "L7");
    EXPECT_TRUE(isForSymbol(s));
    EXPECT_EQ(loopIdOf(s), "L7");
    EXPECT_FALSE(isForSymbol(Symbol("seq")));
}

/** "a:b:c" -> {"a", "b", "c"}: the string split the records replace. */
std::vector<std::string>
splitFields(const std::string &text)
{
    std::vector<std::string> fields;
    size_t pos = 0;
    while (true) {
        size_t colon = text.find(':', pos);
        fields.push_back(text.substr(pos, colon - pos));
        if (colon == std::string::npos)
            return fields;
        pos = colon + 1;
    }
}

/** The record's name and fields equal the string split of `symbol`. */
void
expectFieldsMatchSplit(Symbol symbol)
{
    std::vector<std::string> split = splitFields(symbol.str());
    const OpRecord &record = opRecord(symbol);
    ASSERT_EQ(record.name, split[0]) << symbol.str();
    ASSERT_EQ(record.fields.size(), split.size() - 1) << symbol.str();
    for (size_t i = 0; i < record.fields.size(); ++i)
        EXPECT_EQ(record.fields[i], split[i + 1]) << symbol.str();
}

TEST(OpRecordTest, EveryEncoderRoundTrips)
{
    const OpRecord &negative = opRecord(encodeIntConst(-42, Type::i32()));
    EXPECT_EQ(negative.kind, OpKind::Const);
    EXPECT_EQ(negative.intValue(), -42);
    EXPECT_EQ(negative.type(), Type::i32());
    EXPECT_FALSE(negative.is_statement);
    const OpRecord &index = opRecord(encodeIntConst(7, Type::index()));
    EXPECT_EQ(index.intValue(), 7);
    EXPECT_TRUE(index.type().isIndex());
    const OpRecord &bit = opRecord(encodeIntConst(1, Type::i1()));
    EXPECT_EQ(bit.type(), Type::i1());

    Symbol hex = encodeFloatConst(-0.1);
    EXPECT_NE(hex.str().find("0x"), std::string::npos) << hex.str();
    const OpRecord &fconst = opRecord(hex);
    EXPECT_EQ(fconst.kind, OpKind::ConstF);
    EXPECT_EQ(fconst.float_value, -0.1);

    Type memref = Type::memref({4, 8}, Type::integer(16));
    const OpRecord &arg = opRecord(encodeArg("buf", memref));
    EXPECT_EQ(arg.kind, OpKind::Arg);
    EXPECT_EQ(arg.arg_name, "buf");
    EXPECT_EQ(arg.type(), memref);

    Symbol var_symbol = encodeVar("ii");
    const OpRecord &var = opRecord(var_symbol);
    EXPECT_EQ(var.kind, OpKind::Var);
    EXPECT_EQ(var.iv_name, "ii");
    EXPECT_EQ(var.iv_var, var_symbol);

    const OpRecord &cmp = opRecord(encodeOp("arith.cmpi", {"slt", "i8"}));
    EXPECT_EQ(cmp.kind, OpKind::Value);
    EXPECT_EQ(cmp.name, "arith.cmpi");
    ASSERT_EQ(cmp.fields.size(), 2u);
    EXPECT_EQ(cmp.fields[0], "slt");
    EXPECT_EQ(cmp.type(), Type::integer(8)); // the operand type
    const OpRecord &cast =
        opRecord(encodeOp("arith.extsi", {"i8", "i32"}));
    EXPECT_EQ(cast.type(), Type::i32()); // the to-type
    const OpRecord &add = opRecord(encodeOp("arith.addi", {"index"}));
    EXPECT_EQ(add.name, "arith.addi");
    EXPECT_TRUE(add.type().isIndex());
    EXPECT_FALSE(isStatementSymbol(encodeOp("arith.addi", {"index"})));

    const OpRecord &load = opRecord(encodeLoad("t3"));
    EXPECT_EQ(load.kind, OpKind::Load);
    EXPECT_EQ(load.tag, "t3");
    const OpRecord &store = opRecord(encodeStore("t4"));
    EXPECT_EQ(store.kind, OpKind::Store);
    EXPECT_EQ(store.tag, "t4");
    const OpRecord &alloc =
        opRecord(encodeAlloc(Type::memref({2}, Type::i32()), "t5"));
    EXPECT_EQ(alloc.kind, OpKind::Alloc);
    EXPECT_EQ(alloc.tag, "t5");
    EXPECT_EQ(alloc.type(), Type::memref({2}, Type::i32()));

    Symbol loop = encodeFor("k", "L9");
    const OpRecord &for_record = opRecord(loop);
    EXPECT_EQ(for_record.kind, OpKind::For);
    EXPECT_EQ(for_record.iv_name, "k");
    EXPECT_EQ(for_record.loop_id, "L9");
    EXPECT_EQ(for_record.iv_var, encodeVar("k"));
    EXPECT_EQ(loopIdOf(loop), "L9");

    const OpRecord &while_record = opRecord(encodeWhile("t6"));
    EXPECT_EQ(while_record.kind, OpKind::While);
    EXPECT_EQ(while_record.tag, "t6");
    EXPECT_EQ(opRecord(ifSymbol()).kind, OpKind::If);
    EXPECT_EQ(opRecord(seqSymbol()).kind, OpKind::Seq);
    EXPECT_EQ(opRecord(nopSymbol()).kind, OpKind::Nop);
    EXPECT_EQ(opRecord(funcSymbol("kernel")).kind, OpKind::Func);
    for (Symbol statement :
         {encodeLoad("t3"), encodeStore("t4"),
          encodeAlloc(Type::memref({2}, Type::i32()), "t5"), loop,
          encodeWhile("t6"), ifSymbol(), seqSymbol(), nopSymbol(),
          funcSymbol("kernel")}) {
        EXPECT_TRUE(isStatementSymbol(statement)) << statement.str();
        EXPECT_TRUE(opRecord(statement).payloadOk()) << statement.str();
        expectFieldsMatchSplit(statement);
    }
}

TEST(OpRecordTest, RecordsMatchAStringSplitOnEveryKernel)
{
    // Every symbol of the e-graph, seen at each control iteration of
    // optimizing the nine paper kernels, plus the terms it extracted.
    std::set<Symbol> symbols;
    eg::Rewrite collect = eg::makeDynRewrite(
        "collect-symbols", "?x",
        [](eg::EGraph &, const eg::Match &) -> std::optional<eg::TermPtr> {
            return std::nullopt;
        });
    collect.prepare = [&symbols](const eg::EGraph &egraph,
                                 const std::vector<eg::Match> &) {
        for (eg::EClassId id : egraph.classIds()) {
            for (const eg::ENode &node : egraph.eclass(id).nodes)
                symbols.insert(node.op);
        }
    };
    std::function<void(const eg::TermPtr &)> walkTerm =
        [&](const eg::TermPtr &term) {
            symbols.insert(term->op());
            for (const eg::TermPtr &child : term->children())
                walkTerm(child);
        };
    for (const bench::Benchmark &kernel : bench::allBenchmarks()) {
        core::SeerOptions options;
        options.unroll_max_trip = kernel.unroll_max_trip;
        options.extra_control_rules = {collect};
        core::SeerResult result = core::optimize(
            bench::parseBenchmark(kernel), kernel.func, options);
        ASSERT_TRUE(result.extracted_term) << kernel.name;
        walkTerm(result.original_term);
        walkTerm(result.extracted_term);
    }
    ASSERT_GT(symbols.size(), 500u);
    for (Symbol symbol : symbols)
        expectFieldsMatchSplit(symbol);
}

TEST(OpRecordTest, MalformedPayloadsFailWhereTheyUsedTo)
{
    // Decoding never throws; the failure surfaces where the payload is
    // read, with the error type of the parse that failed.
    Symbol bad_int("const:abc:i32");
    EXPECT_EQ(opNameOf(bad_int), "const");
    EXPECT_FALSE(isStatementSymbol(bad_int));
    EXPECT_EQ(opRecord(bad_int).kind, OpKind::Const);
    EXPECT_FALSE(opRecord(bad_int).payloadOk());
    EXPECT_THROW(opRecord(bad_int).checkPayload(), std::invalid_argument);
    EXPECT_THROW(opRecord(Symbol("const:99999999999999999999:i64"))
                     .checkPayload(),
                 std::out_of_range);
    EXPECT_THROW(opRecord(Symbol("const:1:bogus")).checkPayload(),
                 FatalError);
    // The payload accessors rethrow the same failure, every time.
    EXPECT_THROW(opRecord(bad_int).intValue(), std::invalid_argument);
    EXPECT_THROW(opRecord(bad_int).type(), std::invalid_argument);
    EXPECT_THROW(opRecord(Symbol("const:1:bogus")).intValue(), FatalError);
    EXPECT_THROW(opRecord(Symbol("arith.addi:bogus")).type(), FatalError);

    // Emission reads the payload: the malformed literal fails there.
    eg::TermPtr store = eg::makeTerm(
        encodeStore("t1"),
        {eg::makeTerm(bad_int),
         eg::makeTerm(encodeArg("a", Type::memref({4}, Type::i32()))),
         eg::makeTerm(encodeIntConst(0, Type::index()))});
    EmitSpec spec = inferSpec(store, "f");
    EXPECT_THROW(termToFunc(store, spec), std::invalid_argument);

    // A bad arg type fails in spec inference, as ir::parseType does.
    Symbol bad_arg("arg:a:bogus");
    EXPECT_EQ(opRecord(bad_arg).arg_name, "a");
    EXPECT_THROW(inferSpec(eg::makeTerm(bad_arg), "f"), FatalError);

    // Wrong field counts are not payload kinds at all.
    EXPECT_EQ(opRecord(Symbol("const:1")).kind, OpKind::Value);
    EXPECT_EQ(opRecord(Symbol("var:a:b")).kind, OpKind::Value);
    EXPECT_EQ(opRecord(Symbol("arg:a")).kind, OpKind::Value);
    EXPECT_TRUE(isForSymbol(Symbol("affine.for:i")));
    EXPECT_DEATH(loopIdOf(Symbol("affine.for:i")),
                 "loopIdOf on non-loop symbol");
}

TEST(OpRecordTest, ConcurrentFirstDecodesAgree)
{
    // 1,000 symbols no query has decoded yet, first-decoded by 8
    // threads at once: every thread must get the one published record.
    constexpr size_t kSymbols = 1000;
    constexpr unsigned kThreads = 8;
    std::vector<Symbol> symbols;
    for (size_t i = 0; i < kSymbols; ++i) {
        std::string n = std::to_string(i);
        switch (i % 4) {
        case 0:
            symbols.push_back(Symbol("const:" + n + "000777:i64"));
            break;
        case 1:
            symbols.push_back(
                Symbol("affine.for:race" + n + ":Lrace" + n));
            break;
        case 2:
            symbols.push_back(Symbol("arg:race" + n + ":memref<3xi8>"));
            break;
        default:
            symbols.push_back(Symbol("arith.race" + n + ":i16"));
            break;
        }
    }
    std::vector<std::vector<const OpRecord *>> seen(kThreads);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ++ready;
            while (ready.load() < kThreads) {
            }
            for (size_t i = 0; i < kSymbols; ++i) {
                // Half the threads walk backwards, so races hit both
                // ends of the list.
                size_t at = t % 2 ? kSymbols - 1 - i : i;
                seen[t].push_back(&opRecord(symbols[at]));
            }
            if (t % 2)
                std::reverse(seen[t].begin(), seen[t].end());
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (size_t i = 0; i < kSymbols; ++i) {
        for (unsigned t = 1; t < kThreads; ++t)
            ASSERT_EQ(seen[t][i], seen[0][i]) << symbols[i].str();
        const OpRecord &record = *seen[0][i];
        expectFieldsMatchSplit(symbols[i]);
        if (i % 4 == 0) {
            EXPECT_EQ(record.intValue(),
                      static_cast<int64_t>(i) * 1000000 + 777);
        }
        if (i % 4 == 1) {
            EXPECT_EQ(record.iv_var,
                      encodeVar("race" + std::to_string(i)));
        }
    }
}

TEST(SeerLangRoundTripTest, StraightLineArith)
{
    roundTrip(R"(
func.func @f(%a: memref<4xi32>) {
  %z = arith.constant 0 : index
  %v = memref.load %a[%z] : memref<4xi32>
  %c3 = arith.constant 3 : i32
  %w = arith.muli %v, %c3 : i32
  %x = arith.addi %w, %v : i32
  memref.store %x, %a[%z] : memref<4xi32>
})");
}

TEST(SeerLangRoundTripTest, MemoryOrderPreserved)
{
    // Two loads around a store of the same cell: the tagged encoding
    // must keep them distinct.
    roundTrip(R"(
func.func @f(%a: memref<2xi32>) {
  %z = arith.constant 0 : index
  %one = arith.constant 1 : index
  %v1 = memref.load %a[%z] : memref<2xi32>
  %c9 = arith.constant 9 : i32
  memref.store %c9, %a[%z] : memref<2xi32>
  %v2 = memref.load %a[%z] : memref<2xi32>
  %s = arith.addi %v1, %v2 : i32
  memref.store %s, %a[%one] : memref<2xi32>
})");
}

TEST(SeerLangRoundTripTest, SimpleLoop)
{
    roundTrip(R"(
func.func @f(%a: memref<10xi32>) {
  affine.for %i = 0 to 10 {
    %v = memref.load %a[%i] : memref<10xi32>
    %w = arith.addi %v, %v : i32
    memref.store %w, %a[%i] : memref<10xi32>
  }
})");
}

TEST(SeerLangRoundTripTest, NestedDynamicBoundLoops)
{
    roundTrip(R"(
func.func @f(%a: memref<64xi32>) {
  affine.for %jj = 0 to 64 step 8 {
    affine.for %j = %jj to %jj + 8 {
      %v = memref.load %a[%j] : memref<64xi32>
      %w = arith.addi %v, %v : i32
      memref.store %w, %a[%j] : memref<64xi32>
    }
  }
})");
}

TEST(SeerLangRoundTripTest, MultiDimAccess)
{
    roundTrip(R"(
func.func @f(%a: memref<4x6xi32>) {
  affine.for %i = 0 to 4 {
    affine.for %j = 0 to 6 {
      %v = memref.load %a[%i, %j] : memref<4x6xi32>
      %w = arith.addi %v, %v : i32
      memref.store %w, %a[%i, %j] : memref<4x6xi32>
    }
  }
})");
}

TEST(SeerLangRoundTripTest, IfStatement)
{
    roundTrip(R"(
func.func @f(%a: memref<8xi32>, %b: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    %zero = arith.constant 0 : i32
    %c = arith.cmpi sgt, %v, %zero : i32
    scf.if %c {
      memref.store %v, %b[%i] : memref<8xi32>
    } else {
      %n = arith.subi %zero, %v : i32
      memref.store %n, %b[%i] : memref<8xi32>
    }
  }
})");
}

TEST(SeerLangRoundTripTest, WhileLoop)
{
    roundTrip(R"(
func.func @f(%s: memref<1xi32>) {
  %z = arith.constant 0 : index
  %limit = arith.constant 12 : i32
  %one = arith.constant 1 : i32
  scf.while {
    %v = memref.load %s[%z] : memref<1xi32>
    %cond = arith.cmpi slt, %v, %limit : i32
    scf.condition %cond
  } do {
    %v = memref.load %s[%z] : memref<1xi32>
    %n = arith.addi %v, %one : i32
    memref.store %n, %s[%z] : memref<1xi32>
  }
})");
}

TEST(SeerLangRoundTripTest, AllocAndFloats)
{
    roundTrip(R"(
func.func @f(%out: memref<4xf64>) {
  %tmp = memref.alloc() : memref<4xf64>
  %half = arith.constant 0.5 : f64
  affine.for %i = 0 to 4 {
    %v = memref.load %out[%i] : memref<4xf64>
    %w = arith.mulf %v, %half : f64
    memref.store %w, %tmp[%i] : memref<4xf64>
  }
  affine.for %j = 0 to 4 {
    %v = memref.load %tmp[%j] : memref<4xf64>
    memref.store %v, %out[%j] : memref<4xf64>
  }
})");
}

TEST(SeerLangRoundTripTest, CastsAndSelect)
{
    roundTrip(R"(
func.func @f(%a: memref<8xi8>, %b: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi8>
    %w = arith.extsi %v : i8 to i32
    %u = memref.load %b[%i] : memref<8xi32>
    %zero = arith.constant 0 : i32
    %c = arith.cmpi slt, %w, %zero : i32
    %r = arith.select %c, %u, %w : i32
    memref.store %r, %b[%i] : memref<8xi32>
  }
})");
}

TEST(SeerLangTest, ValueIfIsRejected)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<4xi32>, %c: i1) {
  %z = arith.constant 0 : index
  %x = arith.constant 1 : i32
  %y = arith.constant 2 : i32
  %r = scf.if %c -> (i32) {
    scf.yield %x : i32
  } else {
    scf.yield %y : i32
  }
  memref.store %r, %a[%z] : memref<4xi32>
})");
    EXPECT_THROW(funcToTerm(*m.firstFunc()), FatalError);
}

TEST(SeerLangTest, SnippetSpecInference)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<16xi32>) {
  affine.for %jj = 0 to 16 step 4 {
    affine.for %j = %jj to %jj + 4 {
      %v = memref.load %a[%j] : memref<16xi32>
      memref.store %v, %a[%j] : memref<16xi32>
    }
  }
})");
    Translation translation = funcToTerm(*m.firstFunc());
    // The inner loop term has a free var (jj) and the arg a.
    const auto &func_term = translation.term;
    const auto &outer = func_term->child(0); // affine.for jj
    ASSERT_TRUE(isForSymbol(outer->op()));
    const auto &inner = outer->child(3);
    ASSERT_TRUE(isForSymbol(inner->op()));
    EmitSpec spec = inferSpec(inner, "snippet");
    ASSERT_EQ(spec.args.size(), 2u);
    EXPECT_EQ(spec.args[0].first, "a");
    EXPECT_TRUE(spec.args[0].second.isMemRef());
    EXPECT_EQ(spec.args[1].first, "jj");
    EXPECT_TRUE(spec.args[1].second.isIndex());

    // Emitting the snippet must verify.
    Module snippet = termToFunc(inner, spec);
    EXPECT_EQ(verify(snippet), "") << toString(snippet);
}

TEST(SeerLangTest, LoopRegistryPopulated)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    memref.store %v, %a[%i] : memref<8xi32>
  }
  affine.for %j = 0 to 8 {
    %v = memref.load %a[%j] : memref<8xi32>
    memref.store %v, %a[%j] : memref<8xi32>
  }
})");
    Translation translation = funcToTerm(*m.firstFunc());
    EXPECT_EQ(translation.loops.size(), 2u);
    for (const auto &[loop_id, op] : translation.loops) {
        EXPECT_TRUE(isa(*op, ir::opnames::kAffineFor));
        EXPECT_EQ(loop_id[0], 'L');
    }
}

TEST(SeerLangTest, EmittedLoopsCarryLoopIdAttr)
{
    Module m = parseModule(R"(
func.func @f(%a: memref<8xi32>) {
  affine.for %i = 0 to 8 {
    %v = memref.load %a[%i] : memref<8xi32>
    memref.store %v, %a[%i] : memref<8xi32>
  }
})");
    Translation translation = funcToTerm(*m.firstFunc());
    EmitSpec spec{translation.func_name, translation.args};
    Module out = termToFunc(translation.term, spec);
    bool found = false;
    walk(out, [&](Operation &op) {
        if (isa(op, ir::opnames::kAffineFor)) {
            EXPECT_TRUE(op.hasAttr("seer.loop_id"));
            found = true;
        }
    });
    EXPECT_TRUE(found);
}

} // namespace
} // namespace seer::sl
