/**
 * @file
 * The CMP simulator's coherence directory: line address -> MESI state.
 *
 * Every L2 access looks its line up here, so the table is a flat
 * open-addressing array rather than a node-based map: linear probing
 * from a multiplicative (Fibonacci) home slot, backward-shift deletion
 * (no tombstones, so probe chains never degrade), 16-byte slots. The
 * table is sized once, for the most lines the inclusive L2 can hold, at
 * a load factor of at most 1/2, and never grows: a directory entry
 * exists only while its line is resident in the L2.
 *
 * A slot packs the line address, an occupied bit and the entry's two
 * flags into one word; the sharer bitmask is the other. Line addresses
 * must therefore fit in kLineBits bits. Nothing iterates the table, so
 * its internal order cannot leak into simulation results.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace zc {

class CoherenceDirectory
{
  public:
    /** Bits available to a line address in a slot's key word. */
    static constexpr std::uint32_t kLineBits = 58;

    /** One line's directory state. */
    class Entry
    {
      public:
        std::uint64_t sharers = 0; ///< L1s holding the line, one bit per core

        Addr line() const { return key_ & kLineMask; }
        bool exclusive() const { return (key_ & kExclusive) != 0; }
        bool l2Dirty() const { return (key_ & kDirty) != 0; }
        void setExclusive(bool v) { setFlag(kExclusive, v); }
        void setL2Dirty(bool v) { setFlag(kDirty, v); }

      private:
        friend class CoherenceDirectory;

        void
        setFlag(std::uint64_t flag, bool v)
        {
            key_ = v ? (key_ | flag) : (key_ & ~flag);
        }

        bool used() const { return (key_ & kUsed) != 0; }

        std::uint64_t key_ = 0; ///< 0 = empty slot
    };
    static_assert(sizeof(Entry) == 16, "directory slots are 16 bytes");

    /** A table for at most @p max_lines live entries (load <= 1/2). */
    explicit CoherenceDirectory(std::size_t max_lines)
    {
        zc_assert(max_lines >= 1);
        std::size_t cap = std::bit_ceil(2 * max_lines);
        slots_.resize(cap);
        mask_ = cap - 1;
        shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(cap));
    }

    /** The entry of @p line, or nullptr if it has none. */
    Entry*
    find(Addr line)
    {
        for (std::size_t i = home(line);; i = (i + 1) & mask_) {
            Entry& e = slots_[i];
            if (!e.used()) return nullptr;
            if (e.line() == line) return &e;
        }
    }

    /** The entry of @p line, inserted empty if it has none. */
    Entry&
    findOrInsert(Addr line)
    {
        zc_assert(line <= kLineMask);
        std::size_t i = home(line);
        for (;; i = (i + 1) & mask_) {
            Entry& e = slots_[i];
            if (!e.used()) break;
            if (e.line() == line) return e;
        }
        zc_assert(size_ < capacity() / 2); // sized for load <= 1/2
        size_++;
        slots_[i].key_ = kUsed | line;
        return slots_[i];
    }

    /**
     * Remove @p e, which must be a live entry of this table. Later
     * entries of its probe chain shift back into the hole, so every
     * remaining entry stays reachable from its home slot.
     */
    void
    erase(Entry& e)
    {
        auto hole = static_cast<std::size_t>(&e - slots_.data());
        zc_assert(hole < slots_.size() && e.used());
        for (std::size_t j = (hole + 1) & mask_; slots_[j].used();
             j = (j + 1) & mask_) {
            // The entry at j may fill the hole only if its home is not
            // cyclically after the hole: its probe distance must cover
            // the hole.
            std::size_t h = home(slots_[j].line());
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Entry{};
        size_--;
    }

    /** Live entries. */
    std::size_t size() const { return size_; }

    /** Slots (a power of two). */
    std::size_t capacity() const { return slots_.size(); }

    /** First slot probed for @p line. */
    std::size_t
    home(Addr line) const
    {
        return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

  private:
    static constexpr std::uint64_t kLineMask =
        (std::uint64_t{1} << kLineBits) - 1;
    static constexpr std::uint64_t kUsed = std::uint64_t{1} << 63;
    static constexpr std::uint64_t kExclusive = std::uint64_t{1} << 62;
    static constexpr std::uint64_t kDirty = std::uint64_t{1} << 61;

    std::vector<Entry> slots_;
    std::size_t mask_ = 0;
    std::uint32_t shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace zc
