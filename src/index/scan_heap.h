// ScanHeap: the min-heap every BlockScan orders its pending entries in.
//
// A std::vector driven by std::push_heap / std::pop_heap under
// std::greater — the operations std::priority_queue performs — plus
// clear(), which priority_queue lacks. BlockScan::Restart clears the
// heap and keeps its capacity, so a scan restarted per probe point
// pushes into storage grown by earlier points instead of allocating.
// Every scan's entry order is strict (ties break on a unique id), so
// the pop sequence is fully determined by the entries pushed.

#ifndef KNNQ_SRC_INDEX_SCAN_HEAP_H_
#define KNNQ_SRC_INDEX_SCAN_HEAP_H_

#include <algorithm>
#include <functional>
#include <vector>

namespace knnq {

/// Min-heap over `Entry`, which must define a strict operator>.
template <typename Entry>
class ScanHeap {
 public:
  bool empty() const { return entries_.empty(); }

  /// The least entry. Requires !empty().
  const Entry& top() const { return entries_.front(); }

  void push(const Entry& entry) {
    entries_.push_back(entry);
    std::push_heap(entries_.begin(), entries_.end(), std::greater<Entry>());
  }

  /// Removes and returns the least entry. Requires !empty().
  Entry pop() {
    std::pop_heap(entries_.begin(), entries_.end(), std::greater<Entry>());
    const Entry least = entries_.back();
    entries_.pop_back();
    return least;
  }

  /// Drops every entry, keeping the capacity.
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

}  // namespace knnq

#endif  // KNNQ_SRC_INDEX_SCAN_HEAP_H_
