#include <cstdlib>
#include <map>

#include "bench.h"

namespace perfbench {

int
Tracer::begin(const char *name, int parent, uint64_t request)
{
    if (!enabled_)
        return -1;
    double now = secondsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, now, now, parent, request});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int span)
{
    if (span < 0)
        return;
    double now = secondsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(span)].end = now;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

namespace {

/**
 * The subset of JSON that core::toJson emits, read back: support/json
 * is write-only, and the daemon returns stats as rendered text.
 */
struct JsonNode
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::vector<JsonNode> items;
    std::map<std::string, JsonNode> fields;

    const JsonNode *get(const std::string &key) const
    {
        auto it = fields.find(key);
        return it == fields.end() ? nullptr : &it->second;
    }
    double num(const std::string &key) const
    {
        const JsonNode *node = get(key);
        return node && node->kind == Kind::Number ? node->number : 0;
    }
};

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    bool parse(JsonNode *out, std::string *error)
    {
        if (!value(*out) || (skip(), pos_ != text_.size())) {
            *error = "stats JSON: parse error at byte " +
                     std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    void skip()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }
    bool literal(const char *word)
    {
        size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }
    bool string(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return false;
                char e = text_[pos_++];
                if (e == 'u') {
                    // Non-ASCII escapes only appear in diagnostics the
                    // benchmark never reads; keep a placeholder.
                    if (pos_ + 4 > text_.size())
                        return false;
                    pos_ += 4;
                    out += '?';
                    continue;
                }
                out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
                continue;
            }
            out += c;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_;
        return true;
    }
    bool value(JsonNode &out)
    {
        skip();
        if (pos_ >= text_.size())
            return false;
        char c = text_[pos_];
        if (c == '{') {
            out.kind = JsonNode::Kind::Object;
            ++pos_;
            skip();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skip();
                std::string key;
                if (!string(key))
                    return false;
                skip();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return false;
                if (!value(out.fields[key]))
                    return false;
                skip();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < text_.size() && text_[pos_++] == '}';
            }
        }
        if (c == '[') {
            out.kind = JsonNode::Kind::Array;
            ++pos_;
            skip();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                out.items.emplace_back();
                if (!value(out.items.back()))
                    return false;
                skip();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < text_.size() && text_[pos_++] == ']';
            }
        }
        if (c == '"') {
            out.kind = JsonNode::Kind::String;
            return string(out.string);
        }
        if (literal("true") || literal("false")) {
            out.kind = JsonNode::Kind::Bool;
            out.boolean = c == 't';
            return true;
        }
        if (literal("null"))
            return true;
        const char *begin = text_.c_str() + pos_;
        char *end = nullptr;
        out.number = std::strtod(begin, &end);
        if (end == begin)
            return false;
        out.kind = JsonNode::Kind::Number;
        pos_ += static_cast<size_t>(end - begin);
        return true;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

uint64_t
count(double value)
{
    return static_cast<uint64_t>(value);
}

} // namespace

bool
layersFromStatsJson(const std::string &text, Layers *out,
                    std::string *error)
{
    JsonNode root;
    if (!JsonReader(text).parse(&root, error))
        return false;
    const JsonNode *iterations = root.get("iterations");
    const JsonNode *rules = root.get("rules");
    const JsonNode *extraction = root.get("extraction");
    const JsonNode *match = root.get("match_phase");
    const JsonNode *eval = root.get("external_eval");
    const JsonNode *resource = root.get("resource");
    if (!iterations || !rules || !extraction || !match || !eval ||
        !resource) {
        *error = "stats JSON: missing a section";
        return false;
    }
    Layers layers;
    layers.total = root.num("total_seconds");
    layers.nodes = count(root.num("egraph_nodes"));
    layers.unions = count(root.num("unions_applied"));
    const JsonNode *degraded = root.get("degraded");
    layers.degraded = degraded && degraded->boolean;
    for (const JsonNode &iteration : iterations->items)
        layers.saturate += iteration.num("seconds");
    for (const JsonNode &rule : rules->items) {
        layers.search += rule.num("search_seconds");
        layers.apply += rule.num("apply_seconds");
    }
    for (const JsonNode &phase : extraction->items) {
        layers.extract += phase.num("seconds");
        layers.expansions += count(phase.num("expansions"));
        layers.exhaustions += count(phase.num("budget_exhaustions"));
    }
    layers.match_candidates = count(match->num("candidates_visited"));
    layers.evaluations = count(eval->num("evaluations"));
    layers.pass_hits = count(eval->num("pass_cache_hits"));
    layers.pass_misses = count(eval->num("pass_cache_misses"));
    layers.emit = eval->num("emit_seconds");
    layers.pass = eval->num("pass_seconds");
    layers.translate = eval->num("translate_seconds");
    layers.verify = eval->num("verify_seconds");
    layers.schedule = eval->num("schedule_seconds");
    layers.evictions = count(eval->num("pass_evictions") +
                             eval->num("verify_evictions"));
    layers.resident_mb = eval->num("resident_bytes") / 1e6;
    layers.peak_mb = resource->num("peak_bytes") / 1e6;
    layers.parse = out->parse;
    layers.print = out->print;
    layers.optimize_span = out->optimize_span;
    *out = layers;
    return true;
}

void
putMetric(seer::json::Value &metrics, const std::string &name,
          double value, const std::string &unit)
{
    seer::json::Value metric{seer::json::Object{}};
    metric.set("value", value);
    metric.set("unit", unit);
    metrics.set(name, std::move(metric));
}

} // namespace perfbench
