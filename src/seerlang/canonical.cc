#include "seerlang/canonical.h"

#include <vector>

#include "seerlang/encoding.h"
#include "support/hashing.h"

namespace seer::sl {

using eg::TermPtr;

namespace {

/**
 * Bound-name environment: a stack of (the binder's var:<iv> symbol,
 * binder number), innermost last, so a lookup from the back resolves
 * shadowing.
 */
using Env = std::vector<std::pair<Symbol, uint64_t>>;

/** The binder number `var` resolves to, or nullptr when it is free. */
const uint64_t *
lookup(const Env &env, Symbol var)
{
    for (auto it = env.rbegin(); it != env.rend(); ++it) {
        if (it->first == var)
            return &it->second;
    }
    return nullptr;
}

/** An affine.for carrying both its iv and its loop id. */
bool
isBinder(const OpRecord &record)
{
    return record.kind == OpKind::For && !record.iv_var.empty();
}

uint64_t
hashRec(const TermPtr &term, Env &env, uint64_t &binder_count)
{
    Symbol op = term->op();
    const OpRecord &record = opRecord(op);
    uint64_t hash = kHashSeed;

    if (isBinder(record)) {
        // Binder: op name + binder number stand in for the iv name and
        // the loop id. lb/ub/step are evaluated outside the binding;
        // only the body (child 3) sees the iv.
        uint64_t binder = binder_count++;
        hash = hashString("affine.for#", hash);
        hash = hashValue(binder, hash);
        hash = hashValue(term->arity(), hash);
        size_t body_index = term->arity() - 1;
        for (size_t i = 0; i < term->arity(); ++i) {
            if (i != body_index) {
                hash = hashCombine(
                    hash, hashRec(term->child(i), env, binder_count));
            }
        }
        env.emplace_back(record.iv_var, binder);
        hash = hashCombine(
            hash, hashRec(term->child(body_index), env, binder_count));
        env.pop_back();
        return hash;
    }

    if (record.kind == OpKind::Var) {
        if (const uint64_t *binder = lookup(env, op)) {
            hash = hashString("%bvar", hash);
            return hashValue(*binder, hash);
        }
        // Free variable: semantic payload, hash by name.
    }

    hash = hashString(op.str(), hash);
    hash = hashValue(term->arity(), hash);
    for (const TermPtr &child : term->children())
        hash = hashCombine(hash, hashRec(child, env, binder_count));
    return hash;
}

bool
alphaRec(const TermPtr &a, const TermPtr &b, Env &env_a, Env &env_b,
         uint64_t &binder_count)
{
    if (a->arity() != b->arity())
        return false;
    const OpRecord &record_a = opRecord(a->op());
    const OpRecord &record_b = opRecord(b->op());
    bool for_a = isBinder(record_a);
    bool for_b = isBinder(record_b);
    if (for_a != for_b)
        return false;
    if (for_a) {
        if (a->arity() < 1)
            return false;
        size_t body_index = a->arity() - 1;
        for (size_t i = 0; i < a->arity(); ++i) {
            if (i == body_index)
                continue;
            if (!alphaRec(a->child(i), b->child(i), env_a, env_b,
                          binder_count))
                return false;
        }
        uint64_t binder = binder_count++;
        env_a.emplace_back(record_a.iv_var, binder);
        env_b.emplace_back(record_b.iv_var, binder);
        bool ok = alphaRec(a->child(body_index), b->child(body_index),
                           env_a, env_b, binder_count);
        env_a.pop_back();
        env_b.pop_back();
        return ok;
    }
    bool var_a = record_a.kind == OpKind::Var;
    bool var_b = record_b.kind == OpKind::Var;
    if (var_a != var_b)
        return false;
    if (var_a) {
        const uint64_t *bound_a = lookup(env_a, a->op());
        const uint64_t *bound_b = lookup(env_b, b->op());
        if (!bound_a != !bound_b)
            return false;
        if (bound_a)
            return *bound_a == *bound_b;
        return a->op() == b->op(); // free: names are payload
    }
    if (a->op() != b->op())
        return false;
    for (size_t i = 0; i < a->arity(); ++i) {
        if (!alphaRec(a->child(i), b->child(i), env_a, env_b,
                      binder_count))
            return false;
    }
    return true;
}

} // namespace

uint64_t
canonicalTermHash(const TermPtr &term)
{
    Env env;
    uint64_t binder_count = 0;
    return hashRec(term, env, binder_count);
}

bool
alphaEquivalent(const TermPtr &a, const TermPtr &b)
{
    Env env_a, env_b;
    uint64_t binder_count = 0;
    return alphaRec(a, b, env_a, env_b, binder_count);
}

} // namespace seer::sl
