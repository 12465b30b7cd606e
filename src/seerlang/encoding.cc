#include "seerlang/encoding.h"

#include <atomic>
#include <cstdio>
#include <memory>

#include "ir/parser.h"
#include "support/error.h"

namespace seer::sl {

using eg::joinSymbol;

namespace {

std::atomic<uint64_t> tag_counter{0};
std::atomic<uint64_t> loop_counter{0};

/** Innermost active NameScope of this thread (nullptr: global stream). */
thread_local NameScope *active_scope = nullptr;

/** "<seed-hex>x<n>": scoped names embed their stream so independent
 *  scopes can never collide with each other or with the decimal global
 *  stream. */
std::string
scopedName(uint64_t seed, uint64_t n)
{
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%016llxx%llu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(n));
    return buffer;
}

} // namespace

NameScope::NameScope(uint64_t seed)
    : previous_(active_scope), seed_(seed)
{
    active_scope = this;
}

NameScope::~NameScope()
{
    active_scope = previous_;
}

Symbol
encodeIntConst(int64_t value, ir::Type type)
{
    return joinSymbol({"const", std::to_string(value), type.str()});
}

Symbol
encodeFloatConst(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return joinSymbol({"constf", buffer, "f64"});
}

Symbol
encodeArg(const std::string &name, ir::Type type)
{
    return joinSymbol({"arg", name, type.str()});
}

Symbol
encodeVar(const std::string &name)
{
    return joinSymbol({"var", name});
}

Symbol
encodeOp(const std::string &op_name,
         const std::vector<std::string> &fields)
{
    std::vector<std::string> all{op_name};
    all.insert(all.end(), fields.begin(), fields.end());
    return joinSymbol(all);
}

std::string_view
opNameOf(Symbol symbol)
{
    return opRecord(symbol).name;
}

std::string
freshTag()
{
    if (active_scope)
        return "t" + scopedName(active_scope->seed_,
                                active_scope->next_++);
    return "t" + std::to_string(tag_counter++);
}

std::string
freshLoopId()
{
    if (active_scope)
        return "L" + scopedName(active_scope->seed_,
                                active_scope->next_++);
    return "L" + std::to_string(loop_counter++);
}

Symbol
encodeLoad(const std::string &tag)
{
    return joinSymbol({"memref.load", tag});
}

Symbol
encodeStore(const std::string &tag)
{
    return joinSymbol({"memref.store", tag});
}

Symbol
encodeAlloc(ir::Type type, const std::string &tag)
{
    return joinSymbol({"memref.alloc", type.str(), tag});
}

Symbol
encodeFor(const std::string &iv_name, const std::string &loop_id)
{
    return joinSymbol({"affine.for", iv_name, loop_id});
}

Symbol
encodeWhile(const std::string &tag)
{
    return joinSymbol({"scf.while", tag});
}

bool
isForSymbol(Symbol symbol)
{
    return opRecord(symbol).kind == OpKind::For;
}

std::string_view
loopIdOf(Symbol symbol)
{
    const OpRecord &record = opRecord(symbol);
    SEER_ASSERT(record.kind == OpKind::For && record.fields.size() == 2,
                "loopIdOf on non-loop symbol " << symbol.str());
    return record.loop_id;
}

Symbol
seqSymbol()
{
    return Symbol("seq");
}

Symbol
nopSymbol()
{
    return Symbol("nop");
}

Symbol
ifSymbol()
{
    return Symbol("scf.if");
}

Symbol
funcSymbol(const std::string &name)
{
    return joinSymbol({"func", name});
}

bool
isStatementSymbol(Symbol symbol)
{
    return opRecord(symbol).is_statement;
}

// --- Op records -----------------------------------------------------------

namespace {

/** Split "a:b:c" into views of its fields. */
std::vector<std::string_view>
splitSymbol(std::string_view text)
{
    std::vector<std::string_view> fields;
    size_t pos = 0;
    while (true) {
        size_t colon = text.find(':', pos);
        if (colon == std::string_view::npos) {
            fields.push_back(text.substr(pos));
            return fields;
        }
        fields.push_back(text.substr(pos, colon - pos));
        pos = colon + 1;
    }
}

/** The kind of each named op; a payload kind also needs its exact
 *  field count (-1: any count). */
struct NamedKind
{
    std::string_view name;
    OpKind kind;
    int num_fields;
};

constexpr NamedKind kNamedKinds[] = {
    {"const", OpKind::Const, 2},         {"constf", OpKind::ConstF, 2},
    {"arg", OpKind::Arg, 2},             {"var", OpKind::Var, 1},
    {"memref.load", OpKind::Load, -1},   {"memref.store", OpKind::Store, -1},
    {"memref.alloc", OpKind::Alloc, -1}, {"affine.for", OpKind::For, -1},
    {"scf.if", OpKind::If, -1},          {"scf.while", OpKind::While, -1},
    {"seq", OpKind::Seq, -1},            {"nop", OpKind::Nop, -1},
    {"func", OpKind::Func, -1},
};

OpKind
kindOf(std::string_view name, size_t num_fields)
{
    for (const NamedKind &named : kNamedKinds) {
        if (named.name != name)
            continue;
        if (named.num_fields >= 0 &&
            static_cast<size_t>(named.num_fields) != num_fields)
            return OpKind::Value;
        return named.kind;
    }
    return OpKind::Value;
}

/**
 * The process-wide record table, indexed by symbol id. Blocks never
 * move once allocated and records are never freed, so a reader holds
 * a plain reference after two acquire loads; a first decode is
 * published by compare-and-swap, and a racing loser frees its copy.
 */
class RecordTable
{
  public:
    const OpRecord &
    get(Symbol symbol)
    {
        uint32_t id = symbol.id();
        Slot &slot = block(id >> kBlockBits)[id & (kBlockSize - 1)];
        const OpRecord *record = slot.load(std::memory_order_acquire);
        if (record)
            return *record;
        auto fresh = std::make_unique<OpRecord>(symbol);
        if (slot.compare_exchange_strong(record, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
            return *fresh.release();
        }
        return *record;
    }

  private:
    using Slot = std::atomic<const OpRecord *>;
    static constexpr uint32_t kBlockBits = 12;
    static constexpr uint32_t kBlockSize = uint32_t{1} << kBlockBits;
    static constexpr uint32_t kMaxBlocks = uint32_t{1}
                                           << (32 - kBlockBits);

    Slot *
    block(uint32_t index)
    {
        Slot *found = blocks_[index].load(std::memory_order_acquire);
        if (found)
            return found;
        auto fresh = std::make_unique<Slot[]>(kBlockSize);
        if (blocks_[index].compare_exchange_strong(
                found, fresh.get(), std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            return fresh.release();
        }
        return found;
    }

    std::atomic<Slot *> blocks_[kMaxBlocks] = {};
};

constinit RecordTable records;

} // namespace

OpRecord::OpRecord(Symbol symbol)
{
    std::vector<std::string_view> split = splitSymbol(symbol.str());
    name = split[0];
    split.erase(split.begin());
    fields = std::move(split);
    const auto &f = fields;
    kind = kindOf(name, f.size());
    switch (kind) {
    case OpKind::ConstF:
        float_value = std::strtod(std::string(f[0]).c_str(), nullptr);
        break;
    case OpKind::Arg:
        arg_name = f[0];
        break;
    case OpKind::Var:
        iv_name = f[0];
        iv_var = symbol;
        break;
    case OpKind::For:
        if (f.size() >= 1)
            iv_name = f[0];
        if (f.size() >= 2)
            loop_id = f[1];
        if (f.size() == 2)
            iv_var = encodeVar(std::string(iv_name));
        break;
    case OpKind::Load:
    case OpKind::Store:
    case OpKind::While:
        if (!f.empty())
            tag = f[0];
        break;
    case OpKind::Alloc:
        if (f.size() >= 2)
            tag = f[1];
        break;
    default:
        break;
    }
    is_statement = kind >= OpKind::Load;
    try {
        parsePayload();
    } catch (const std::bad_alloc &) {
        throw;
    } catch (const std::exception &) {
        // Kept for the payload accessors: the failure surfaces where a
        // reader needs the payload, not at whichever query decoded
        // first.
        payload_error_ = std::current_exception();
    }
}

/** The payload parses, in the order the string decoders ran them;
 *  throws what they threw. */
void
OpRecord::parsePayload()
{
    switch (kind) {
    case OpKind::Const:
        int_value_ = std::stoll(std::string(fields[0]));
        type_ = ir::parseType(fields[1]);
        break;
    case OpKind::Arg:
        type_ = ir::parseType(fields[1]);
        break;
    case OpKind::Alloc:
        if (!fields.empty())
            type_ = ir::parseType(fields[0]);
        break;
    case OpKind::Value:
        if (!fields.empty())
            type_ = ir::parseType(fields.back());
        break;
    default:
        break;
    }
}

const OpRecord &
opRecord(Symbol symbol)
{
    return records.get(symbol);
}

} // namespace seer::sl
