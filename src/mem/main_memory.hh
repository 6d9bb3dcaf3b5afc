/**
 * @file
 * MainMemory holds the *functional* state of the simulated machine.
 *
 * The simulator is functional-first (like Snipersim): every load and store
 * operates directly on this container, while caches and DRAM are timing /
 * bookkeeping models layered beside it. Checkpoint correctness — rollback
 * restoring a bit-exact earlier state — is defined against this object,
 * which is what makes it directly testable.
 *
 * Storage is paged and sparse; untouched words read as zero. The hot
 * read()/write() path indexes a flat page directory (one pointer load,
 * no tree walk); page ids beyond the directory — reachable only through
 * corrupted addresses after fault injection — fall back to an ordered
 * overflow map. Both paths are inline in this header so the CPU model's
 * load/store dispatch folds the lookup in.
 */

#ifndef ACR_MEM_MAIN_MEMORY_HH
#define ACR_MEM_MAIN_MEMORY_HH

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace acr::mem
{

/** Sparse, paged, word-addressed functional memory. */
class MainMemory
{
  public:
    /** Words per allocation page (power of two). */
    static constexpr std::size_t kPageWords = 4096;

    /**
     * Page ids below this live in the flat directory (covers the entire
     * well-formed address space of the workloads); larger ids — only
     * producible by corrupted pointers — go to the overflow map.
     */
    static constexpr Addr kDirectPages = 1 << 14;

    /** Read one word; untouched words are zero. */
    Word
    read(Addr addr) const
    {
        const Addr page_id = addr / kPageWords;
        if (page_id < direct_.size()) {
            const Word *page = direct_[page_id].get();
            return page ? page[addr % kPageWords] : 0;
        }
        const Word *page = findSlowPage(page_id);
        return page ? page[addr % kPageWords] : 0;
    }

    /**
     * Write one word.
     * @return the previous value (what an undo-log record would hold).
     */
    Word
    write(Addr addr, Word value)
    {
        const Addr page_id = addr / kPageWords;
        Word *page;
        if (page_id < direct_.size() && direct_[page_id]) {
            page = direct_[page_id].get();
        } else {
            page = touchPage(page_id);
        }
        Word &slot = page[addr % kPageWords];
        Word old = slot;
        slot = value;
        return old;
    }

    /** Number of pages currently allocated. */
    std::size_t pageCount() const
    {
        return directCount_ + overflow_.size();
    }

    /** Total words currently backed by storage. */
    std::size_t backedWords() const { return pageCount() * kPageWords; }

    /** Drop all contents. */
    void clear();

    /**
     * A full copy of the backed state, for golden-model comparison in
     * tests. Pages that were allocated but remained all-zero compare
     * equal to absent pages.
     */
    std::map<Addr, Word> image() const;

    /**
     * Compare against another memory, treating unbacked words as zero.
     * @return the first differing address, or kInvalidAddr if identical.
     */
    Addr firstDifference(const MainMemory &other) const;

    /** The first @p limit addresses whose words differ from @p other's,
     *  ascending (unbacked words read as zero). Pages are compared
     *  whole first, so equal pages cost one memcmp. */
    std::vector<Addr> differences(const MainMemory &other,
                                  std::size_t limit) const;

    /** One word's share of digest(): zero for a zero word, so a
     *  store's effect on the digest is wordDigest(addr, new) -
     *  wordDigest(addr, old). */
    static std::uint64_t
    wordDigest(Addr addr, Word value)
    {
        return value == 0
                   ? 0
                   : mix64(value ^ (addr * 0x9e3779b97f4a7c15ULL));
    }

    /**
     * Order-independent digest of the contents: the wrapping sum of
     * wordDigest() over every non-zero word. An allocated all-zero
     * page digests like an absent one, and a running sum can be kept
     * from the stores alone (DESIGN.md §12.1).
     */
    std::uint64_t digest() const;

    /** Backed pages by id, for the prefix-sharing snapshot
     *  (DESIGN.md §13). */
    struct Snap
    {
        std::vector<std::pair<Addr, std::vector<Word>>> pages;
    };

    Snap save() const;

    /** Replace all contents with @p snap's pages. */
    void restore(const Snap &snap);

  private:
    using Page = std::unique_ptr<Word[]>;

    /** Overflow-map read path (page id past the flat directory). */
    const Word *findSlowPage(Addr page_id) const;

    /** Read-only page lookup across both tiers. */
    const Word *findPage(Addr page_id) const;

    /** Allocate-on-demand page lookup (cold path of write()). */
    Word *touchPage(Addr page_id);

    /** Every allocated page id, in ascending order. */
    std::vector<Addr> pageIds() const;

    /** Flat directory, grown on demand up to kDirectPages entries. */
    std::vector<Page> direct_;
    /** Allocated entries in direct_ (pageCount bookkeeping). */
    std::size_t directCount_ = 0;
    /** Pages whose id is >= kDirectPages (corrupted addresses). */
    std::map<Addr, Page> overflow_;
};

} // namespace acr::mem

#endif // ACR_MEM_MAIN_MEMORY_HH
