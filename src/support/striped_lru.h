/**
 * @file
 * A mutex-striped concurrent LRU map with a byte budget.
 *
 * The process-wide evaluation caches (core/pass_eval) sit on the hot
 * path of every optimization session: in daemon mode (`seer-optd`) many
 * concurrent sessions hit one shared store, so a single cache mutex
 * would serialize exactly the stage the cache exists to parallelize.
 * This container stripes the key space over N independent shards, each
 * with its own mutex, hash map, and intrusive LRU list:
 *
 *  - lookups and inserts on different shards never contend;
 *  - each shard enforces a local byte budget (total budget / shards)
 *    by evicting least-recently-used entries, so the global footprint
 *    is bounded without any cross-shard coordination;
 *  - per-shard hit/miss/eviction counters aggregate into cache-level
 *    metrics without a shared stats lock on the fast path.
 *
 * Keys are uint64_t content hashes (already uniformly distributed);
 * the shard index remixes them so the low bits of a structural hash
 * cannot skew the striping. A byte budget of 0 disables eviction (the
 * single-shot CLI default: the cache dies with the process anyway).
 *
 * Eviction and determinism: values memoize a *pure function* of their
 * key, so an eviction can only cost a recomputation, never change a
 * result. Persisted snapshots iterate in sorted key order (forEach),
 * which keeps save files byte-stable regardless of the LRU order the
 * traffic happened to leave behind.
 */
#ifndef SEER_SUPPORT_STRIPED_LRU_H_
#define SEER_SUPPORT_STRIPED_LRU_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace seer {

/** Aggregated (or per-shard) counters of a StripedLru store. */
struct LruMetrics
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;

    LruMetrics &operator+=(const LruMetrics &other)
    {
        hits += other.hits;
        misses += other.misses;
        insertions += other.insertions;
        evictions += other.evictions;
        evicted_bytes += other.evicted_bytes;
        entries += other.entries;
        bytes += other.bytes;
        return *this;
    }
};

template <typename Value>
class StripedLru
{
  public:
    /**
     * `shards` is rounded up to a power of two. `max_bytes` is the
     * total budget across shards (0 = unlimited, never evict). The
     * charge hook observes every byte delta (inserts positive,
     * evictions/clears negative) — the governance bridge.
     */
    explicit StripedLru(unsigned shards = 16, uint64_t max_bytes = 0,
                        std::function<void(int64_t)> charge = nullptr)
        : max_bytes_(max_bytes), charge_(std::move(charge))
    {
        unsigned rounded = 1;
        while (rounded < shards && rounded < 4096)
            rounded <<= 1;
        shards_.reserve(rounded);
        for (unsigned i = 0; i < rounded; ++i)
            shards_.push_back(std::make_unique<Shard>());
        shard_budget_ = max_bytes_ == 0
                            ? 0
                            : std::max<uint64_t>(1, max_bytes_ / rounded);
    }

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    uint64_t maxBytes() const { return max_bytes_; }

    /**
     * Copy out the value under `key` (touches the LRU position).
     * `count` controls whether the shard's hit/miss counters tick —
     * probes that the caller accounts for itself pass false.
     */
    std::optional<Value> lookup(uint64_t key, bool count = true)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            if (count)
                ++shard.metrics.misses;
            return std::nullopt;
        }
        if (count)
            ++shard.metrics.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         it->second.lru_it);
        return it->second.value;
    }

    /** Presence test (touches LRU; counts a hit or a miss). */
    bool contains(uint64_t key)
    {
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.map.find(key);
        if (it == shard.map.end()) {
            ++shard.metrics.misses;
            return false;
        }
        ++shard.metrics.hits;
        shard.lru.splice(shard.lru.begin(), shard.lru,
                         it->second.lru_it);
        return true;
    }

    /**
     * Insert or overwrite `key` charging `bytes` against the shard
     * budget; evicts LRU entries as needed. Returns true when the
     * entry was newly inserted (false: overwrite). When `evicted` is
     * given, the evictions this insert made are added to its
     * evictions and evicted_bytes.
     */
    bool insert(uint64_t key, Value value, int64_t bytes,
                LruMetrics *evicted = nullptr)
    {
        Shard &shard = shardFor(key);
        int64_t delta = 0;
        bool inserted = false;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            auto it = shard.map.find(key);
            if (it != shard.map.end()) {
                delta += bytes - it->second.bytes;
                shard.bytes += bytes - it->second.bytes;
                it->second.value = std::move(value);
                it->second.bytes = bytes;
                shard.lru.splice(shard.lru.begin(), shard.lru,
                                 it->second.lru_it);
            } else {
                shard.lru.push_front(key);
                Entry entry;
                entry.value = std::move(value);
                entry.bytes = bytes;
                entry.lru_it = shard.lru.begin();
                shard.map.emplace(key, std::move(entry));
                shard.bytes += bytes;
                delta += bytes;
                ++shard.metrics.insertions;
                inserted = true;
            }
            delta -= evictLocked(shard, key, evicted);
        }
        if (charge_ && delta != 0)
            charge_(delta);
        return inserted;
    }

    /** Drop every entry (credits the full byte footprint back). */
    void clear()
    {
        int64_t delta = 0;
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            delta -= shard->bytes;
            shard->map.clear();
            shard->lru.clear();
            shard->bytes = 0;
        }
        if (charge_ && delta != 0)
            charge_(delta);
    }

    size_t size() const
    {
        size_t total = 0;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            total += shard->map.size();
        }
        return total;
    }

    int64_t bytes() const
    {
        int64_t total = 0;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            total += shard->bytes;
        }
        return total;
    }

    LruMetrics metrics() const
    {
        LruMetrics total;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            LruMetrics m = shard->metrics;
            m.entries = shard->map.size();
            m.bytes = static_cast<uint64_t>(
                shard->bytes < 0 ? 0 : shard->bytes);
            total += m;
        }
        return total;
    }

    /**
     * Visit a consistent per-shard snapshot of every (key, value) in
     * globally sorted key order — the byte-stable serialization order.
     * Values are copied out under the shard locks first, so the
     * visitor runs lock-free (it may re-enter the cache).
     */
    void forEachSorted(
        const std::function<void(uint64_t, const Value &)> &fn) const
    {
        std::vector<std::pair<uint64_t, Value>> snapshot;
        for (const auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            for (const auto &[key, entry] : shard->map)
                snapshot.emplace_back(key, entry.value);
        }
        std::sort(snapshot.begin(), snapshot.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[key, value] : snapshot)
            fn(key, value);
    }

  private:
    struct Entry
    {
        Value value;
        int64_t bytes = 0;
        std::list<uint64_t>::iterator lru_it;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<uint64_t, Entry> map;
        /** Front = most recently used; back = eviction candidate. */
        std::list<uint64_t> lru;
        int64_t bytes = 0;
        LruMetrics metrics;
    };

    Shard &shardFor(uint64_t key)
    {
        // Fibonacci remix: decorrelate the shard index from whatever
        // structure the caller's hash left in the low bits.
        uint64_t mixed = key * 0x9E3779B97F4A7C15ull;
        return *shards_[(mixed >> 48) & (shards_.size() - 1)];
    }

    /** Evict LRU entries until the shard fits its budget; never evicts
     *  `protect` (the entry just inserted — an entry larger than the
     *  whole budget stays until something else displaces it). Returns
     *  the bytes credited back; also counts into `evicted` if given.
     *  Shard mutex held. */
    int64_t evictLocked(Shard &shard, uint64_t protect,
                        LruMetrics *evicted)
    {
        if (shard_budget_ == 0)
            return 0;
        int64_t credited = 0;
        while (shard.bytes > static_cast<int64_t>(shard_budget_) &&
               shard.lru.size() > 1) {
            uint64_t victim = shard.lru.back();
            if (victim == protect) {
                // Rotate the fresh entry off the tail and retry.
                shard.lru.splice(shard.lru.begin(), shard.lru,
                                 std::prev(shard.lru.end()));
                continue;
            }
            auto it = shard.map.find(victim);
            shard.bytes -= it->second.bytes;
            credited += it->second.bytes;
            ++shard.metrics.evictions;
            shard.metrics.evicted_bytes +=
                static_cast<uint64_t>(it->second.bytes);
            if (evicted) {
                ++evicted->evictions;
                evicted->evicted_bytes +=
                    static_cast<uint64_t>(it->second.bytes);
            }
            shard.lru.pop_back();
            shard.map.erase(it);
        }
        return credited;
    }

    uint64_t max_bytes_;
    uint64_t shard_budget_ = 0;
    std::function<void(int64_t)> charge_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace seer

#endif // SEER_SUPPORT_STRIPED_LRU_H_
