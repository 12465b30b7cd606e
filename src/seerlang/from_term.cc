#include "seerlang/from_term.h"

#include <optional>
#include <set>

#include "ir/builder.h"
#include "seerlang/encoding.h"
#include "support/error.h"

namespace seer::sl {

using namespace ir;
using eg::Term;
using eg::TermPtr;

namespace {

/** Names looked up by the views of an op record. */
using NameSet = std::set<std::string, std::less<>>;

void
collectFreeLeaves(const TermPtr &term, NameSet &bound_vars,
                  std::map<std::string, Type, std::less<>> &args,
                  NameSet &free_vars)
{
    const OpRecord &record = opRecord(term->op());
    if (record.kind == OpKind::Arg) {
        record.checkPayload();
        std::string_view name = record.arg_name;
        auto it = args.find(name);
        if (it != args.end() && !(it->second == record.type()))
            fatal("SeerLang: arg '" + std::string(name) +
                  "' used at two types");
        args.emplace(name, record.type());
        return;
    }
    if (record.kind == OpKind::Var) {
        if (!bound_vars.count(record.iv_name))
            free_vars.emplace(record.iv_name);
        return;
    }
    if (record.kind == OpKind::For) {
        std::string_view iv = record.iv_name;
        // Bounds and step are outside the iv scope.
        for (size_t i = 0; i < 3; ++i) {
            collectFreeLeaves(term->child(i), bound_vars, args,
                              free_vars);
        }
        auto [it, inserted] = bound_vars.emplace(iv);
        collectFreeLeaves(term->child(3), bound_vars, args, free_vars);
        if (inserted)
            bound_vars.erase(it);
        return;
    }
    for (const auto &child : term->children())
        collectFreeLeaves(child, bound_vars, args, free_vars);
}

/** The value of an integer-literal term, or nullopt. */
std::optional<int64_t>
intConstOf(const TermPtr &term)
{
    const OpRecord &record = opRecord(term->op());
    if (record.kind != OpKind::Const)
        return std::nullopt;
    return record.intValue();
}

class Emitter
{
  public:
    Module
    run(const TermPtr &term, const EmitSpec &spec)
    {
        Module module;
        auto func = std::make_unique<Operation>(
            Symbol(ir::opnames::kFunc));
        func->setAttr("sym_name", Attribute(spec.func_name));
        Block &body = func->addRegion().block();
        pushScope();
        for (const auto &[name, type] : spec.args)
            scopes_.back()[name] = body.addArg(type, name);

        TermPtr body_term = term;
        if (opRecord(term->op()).kind == OpKind::Func)
            body_term = term->child(0);
        entry_block_ = &body;
        OpBuilder builder = OpBuilder::atEnd(body);
        emitStatement(body_term, builder);
        builder.create(ir::opnames::kReturn, {}, {});
        popScope();
        module.push_back(std::move(func));
        return module;
    }

  private:
    using VnKey = std::pair<Symbol, std::vector<ValueImpl *>>;

    void
    pushScope()
    {
        scopes_.emplace_back();
        vn_.emplace_back();
    }

    void
    popScope()
    {
        scopes_.pop_back();
        vn_.pop_back();
    }

    Value
    lookupName(std::string_view name)
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return found->second;
        }
        fatal("SeerLang emission: unbound name '" + std::string(name) +
              "'");
    }

    std::optional<Value>
    vnLookup(const VnKey &key)
    {
        for (auto it = vn_.rbegin(); it != vn_.rend(); ++it) {
            auto found = it->find(key);
            if (found != it->end())
                return found->second;
        }
        return std::nullopt;
    }

    void
    emitStatement(const TermPtr &term, OpBuilder &builder)
    {
        const OpRecord &record = opRecord(term->op());
        switch (record.kind) {
        case OpKind::Nop:
            return;
        case OpKind::Seq:
            emitStatement(term->child(0), builder);
            emitStatement(term->child(1), builder);
            return;
        case OpKind::Load:
        case OpKind::Alloc:
            emitValue(term, builder);
            return;
        case OpKind::Store:
            emitStore(term, record, builder);
            return;
        case OpKind::For:
            emitFor(term, record, builder);
            return;
        case OpKind::If:
            emitIf(term, builder);
            return;
        case OpKind::While:
            emitWhile(term, builder);
            return;
        default:
            fatal("SeerLang emission: '" + std::string(record.name) +
                  "' is not a statement operator");
        }
    }

    void
    emitStore(const TermPtr &term, const OpRecord &record,
              OpBuilder &builder)
    {
        if (!emitted_stores_.emplace(record.tag).second)
            return; // already materialized at an earlier chain position
        Value value = emitValue(term->child(0), builder);
        Value memref = emitValue(term->child(1), builder);
        std::vector<Value> indices;
        for (size_t i = 2; i < term->arity(); ++i)
            indices.push_back(emitValue(term->child(i), builder));
        builder.store(value, memref, indices);
    }

    /**
     * Turn a bound term into an AffineBound: decompose linear structure
     * when present; otherwise emit the whole expression as one value.
     */
    AffineBound
    emitBound(const TermPtr &term, OpBuilder &builder)
    {
        const OpRecord &record = opRecord(term->op());
        if (record.kind == OpKind::Const) {
            return AffineBound::fromConstant(record.intValue());
        }
        std::string_view name = record.name;
        if (name == ir::opnames::kAddI) {
            AffineBound lhs = emitBound(term->child(0), builder);
            AffineBound rhs = emitBound(term->child(1), builder);
            AffineBound out;
            out.constant = lhs.constant + rhs.constant;
            out.terms = lhs.terms;
            out.terms.insert(out.terms.end(), rhs.terms.begin(),
                             rhs.terms.end());
            return out;
        }
        if (name == ir::opnames::kMulI) {
            std::optional<int64_t> c0 = intConstOf(term->child(0));
            std::optional<int64_t> c1 = intConstOf(term->child(1));
            if (c1 && !c0) {
                AffineBound base = emitBound(term->child(0), builder);
                AffineBound out;
                out.constant = base.constant * *c1;
                for (auto &[v, coeff] : base.terms)
                    out.terms.emplace_back(v, coeff * *c1);
                return out;
            }
            if (c0 && !c1) {
                AffineBound base = emitBound(term->child(1), builder);
                AffineBound out;
                out.constant = base.constant * *c0;
                for (auto &[v, coeff] : base.terms)
                    out.terms.emplace_back(v, coeff * *c0);
                return out;
            }
        }
        // Fallback: a single opaque index value.
        return AffineBound::fromValue(emitValue(term, builder));
    }

    void
    emitFor(const TermPtr &term, const OpRecord &record,
            OpBuilder &builder)
    {
        std::string_view iv_name = record.iv_name;

        AffineBound lb = emitBound(term->child(0), builder);
        AffineBound ub = emitBound(term->child(1), builder);
        std::optional<int64_t> step = intConstOf(term->child(2));
        if (!step)
            fatal("SeerLang emission: non-constant loop step");

        Operation *loop = builder.affineFor(lb, ub, *step,
                                            std::string(iv_name));
        loop->setAttr("seer.loop_id", Attribute(std::string(record.loop_id)));
        Block &body = loop->region(0).block();
        pushScope();
        scopes_.back().insert_or_assign(std::string(iv_name), body.arg(0));
        OpBuilder body_builder = OpBuilder::atEnd(body);
        emitStatement(term->child(3), body_builder);
        body_builder.create(ir::opnames::kAffineYield, {}, {});
        popScope();
    }

    void
    emitIf(const TermPtr &term, OpBuilder &builder)
    {
        Value cond = emitValue(term->child(0), builder);
        Operation *if_op = builder.scfIf(cond);
        for (int branch = 0; branch < 2; ++branch) {
            pushScope();
            OpBuilder branch_builder =
                OpBuilder::atEnd(if_op->region(branch).block());
            emitStatement(term->child(1 + branch), branch_builder);
            branch_builder.create(ir::opnames::kYield, {}, {});
            popScope();
        }
    }

    void
    emitWhile(const TermPtr &term, OpBuilder &builder)
    {
        Operation *while_op = builder.scfWhile();
        pushScope();
        OpBuilder cond_builder =
            OpBuilder::atEnd(while_op->region(0).block());
        emitStatement(term->child(0), cond_builder);
        Value cond = emitValue(term->child(1), cond_builder);
        cond_builder.create(ir::opnames::kCondition, {cond}, {});
        popScope();
        pushScope();
        OpBuilder body_builder =
            OpBuilder::atEnd(while_op->region(1).block());
        emitStatement(term->child(2), body_builder);
        body_builder.create(ir::opnames::kYield, {}, {});
        popScope();
    }

    Value
    emitValue(const TermPtr &term, OpBuilder &builder)
    {
        Symbol op = term->op();
        const OpRecord &record = opRecord(op);
        if (record.kind == OpKind::Const) {
            record.checkPayload();
            VnKey key{op, {}};
            if (auto hit = vnLookup(key))
                return *hit;
            Value v = builder.intConstant(record.type(), record.intValue());
            vn_.back()[key] = v;
            return v;
        }
        if (record.kind == OpKind::ConstF) {
            VnKey key{op, {}};
            if (auto hit = vnLookup(key))
                return *hit;
            Value v = builder.floatConstant(record.float_value);
            vn_.back()[key] = v;
            return v;
        }
        if (record.kind == OpKind::Arg) {
            record.checkPayload();
            return lookupName(record.arg_name);
        }
        if (record.kind == OpKind::Var)
            return lookupName(record.iv_name);

        std::string_view name = record.name;
        const auto &fields = record.fields;

        if (record.kind == OpKind::Load) {
            std::string_view tag = record.tag;
            auto it = tagged_.find(tag);
            if (it != tagged_.end())
                return it->second;
            Value memref = emitValue(term->child(0), builder);
            std::vector<Value> indices;
            for (size_t i = 1; i < term->arity(); ++i)
                indices.push_back(emitValue(term->child(i), builder));
            Value v = builder.load(memref, indices);
            tagged_.insert_or_assign(std::string(tag), v);
            return v;
        }
        if (record.kind == OpKind::Alloc) {
            std::string_view tag = record.tag;
            auto it = tagged_.find(tag);
            if (it != tagged_.end())
                return it->second;
            // Buffers live at function scope: emit at the entry so
            // every region (and every clone a pass makes of the
            // referencing code) sees the same buffer.
            OpBuilder entry_builder =
                entry_block_->empty()
                    ? OpBuilder::atEnd(*entry_block_)
                    : OpBuilder::before(&entry_block_->front());
            Value v = entry_builder.alloc(record.type());
            v.definingOp()->setAttr("seer.tag", Attribute(std::string(tag)));
            tagged_.insert_or_assign(std::string(tag), v);
            return v;
        }
        if (record.is_statement) {
            fatal("SeerLang emission: statement operator '" +
                  std::string(name) + "' in value position");
        }

        // Generic value op: children first, then value-number.
        std::vector<Value> operands;
        operands.reserve(term->arity());
        for (const auto &child : term->children())
            operands.push_back(emitValue(child, builder));
        std::vector<ValueImpl *> key_operands;
        for (Value operand : operands)
            key_operands.push_back(operand.impl());
        VnKey key{op, key_operands};
        if (auto hit = vnLookup(key))
            return *hit;

        Value result;
        if (name == ir::opnames::kCmpI || name == ir::opnames::kCmpF) {
            Operation *cmp = builder.create(name, std::move(operands),
                                            {Type::i1()});
            cmp->setAttr("predicate", Attribute(std::string(fields[0])));
            result = cmp->result();
        } else {
            // A cast's fields are (from, to); other ops carry just the
            // result type. Either way it is the last field.
            SEER_ASSERT(fields.size() == 1 || fields.size() == 2,
                        "unexpected symbol encoding: " << op.str());
            result = builder
                         .create(name, std::move(operands), {record.type()})
                         ->result();
        }
        vn_.back()[key] = result;
        return result;
    }

    ir::Block *entry_block_ = nullptr;
    std::vector<std::map<std::string, Value, std::less<>>> scopes_;
    std::vector<std::map<VnKey, Value>> vn_;
    std::map<std::string, Value, std::less<>> tagged_;
    NameSet emitted_stores_;
};

} // namespace

EmitSpec
inferSpec(const TermPtr &term, const std::string &func_name)
{
    NameSet bound, free_vars;
    std::map<std::string, Type, std::less<>> args;
    collectFreeLeaves(term, bound, args, free_vars);
    EmitSpec spec;
    spec.func_name = func_name;
    for (const auto &[name, type] : args)
        spec.args.emplace_back(name, type);
    for (const std::string &name : free_vars)
        spec.args.emplace_back(name, Type::index());
    return spec;
}

Module
termToFunc(const TermPtr &term, const EmitSpec &spec)
{
    return Emitter().run(term, spec);
}

} // namespace seer::sl
