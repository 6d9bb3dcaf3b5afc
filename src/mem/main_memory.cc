#include "mem/main_memory.hh"

#include <algorithm>

namespace acr::mem
{

const Word *
MainMemory::findSlowPage(Addr page_id) const
{
    auto it = overflow_.find(page_id);
    return it == overflow_.end() ? nullptr : it->second.get();
}

const Word *
MainMemory::findPage(Addr page_id) const
{
    if (page_id < direct_.size())
        return direct_[page_id].get();
    return findSlowPage(page_id);
}

Word *
MainMemory::touchPage(Addr page_id)
{
    if (page_id < kDirectPages) {
        if (page_id >= direct_.size())
            direct_.resize(page_id + 1);
        if (!direct_[page_id]) {
            direct_[page_id] = std::make_unique<Word[]>(kPageWords);
            ++directCount_;
        }
        return direct_[page_id].get();
    }
    auto it = overflow_.find(page_id);
    if (it == overflow_.end()) {
        it = overflow_
                 .emplace(page_id, std::make_unique<Word[]>(kPageWords))
                 .first;
    }
    return it->second.get();
}

void
MainMemory::clear()
{
    direct_.clear();
    directCount_ = 0;
    overflow_.clear();
}

std::vector<Addr>
MainMemory::pageIds() const
{
    std::vector<Addr> ids;
    ids.reserve(pageCount());
    for (Addr id = 0; id < direct_.size(); ++id) {
        if (direct_[id])
            ids.push_back(id);
    }
    // Overflow ids are all >= kDirectPages, so appending keeps order.
    for (const auto &kv : overflow_)
        ids.push_back(kv.first);
    return ids;
}

std::map<Addr, Word>
MainMemory::image() const
{
    std::map<Addr, Word> out;
    for (Addr page_id : pageIds()) {
        const Word *page = findPage(page_id);
        for (std::size_t i = 0; i < kPageWords; ++i) {
            if (page[i] != 0)
                out[page_id * kPageWords + i] = page[i];
        }
    }
    return out;
}

Addr
MainMemory::firstDifference(const MainMemory &other) const
{
    std::vector<Addr> first = differences(other, 1);
    return first.empty() ? kInvalidAddr : first.front();
}

std::vector<Addr>
MainMemory::differences(const MainMemory &other, std::size_t limit) const
{
    std::vector<Addr> ids = pageIds();
    std::vector<Addr> other_ids = other.pageIds();
    std::vector<Addr> all;
    all.reserve(ids.size() + other_ids.size());
    std::merge(ids.begin(), ids.end(), other_ids.begin(),
               other_ids.end(), std::back_inserter(all));
    all.erase(std::unique(all.begin(), all.end()), all.end());

    std::vector<Addr> out;
    for (Addr page_id : all) {
        if (out.size() >= limit)
            break;
        const Word *a = findPage(page_id);
        const Word *b = other.findPage(page_id);
        if (a && b && std::equal(a, a + kPageWords, b))
            continue;
        for (std::size_t i = 0; i < kPageWords && out.size() < limit;
             ++i) {
            Word va = a ? a[i] : 0;
            Word vb = b ? b[i] : 0;
            if (va != vb)
                out.push_back(page_id * kPageWords + i);
        }
    }
    return out;
}

std::uint64_t
MainMemory::digest() const
{
    std::uint64_t sum = 0;
    for (Addr page_id : pageIds()) {
        const Word *page = findPage(page_id);
        const Addr base = page_id * kPageWords;
        for (std::size_t i = 0; i < kPageWords; ++i)
            sum += wordDigest(base + i, page[i]);
    }
    return sum;
}

MainMemory::Snap
MainMemory::save() const
{
    Snap snap;
    snap.pages.reserve(pageCount());
    for (Addr page_id : pageIds()) {
        const Word *page = findPage(page_id);
        snap.pages.emplace_back(
            page_id, std::vector<Word>(page, page + kPageWords));
    }
    return snap;
}

void
MainMemory::restore(const Snap &snap)
{
    clear();
    for (const auto &[page_id, words] : snap.pages) {
        Word *page = touchPage(page_id);
        std::copy(words.begin(), words.end(), page);
    }
}

} // namespace acr::mem
