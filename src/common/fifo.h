// A FIFO over one vector that keeps its capacity, so steady traffic
// allocates nothing: the popped prefix is dropped when the queue drains, or
// compacted once it passes half the vector.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace pagoda::common {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  /// The i-th oldest item (0 = front).
  T& operator[](std::size_t i) { return items_[head_ + i]; }
  T& front() { return (*this)[0]; }

  void push_back(T item) { items_.push_back(std::move(item)); }

  T pop_front() {
    PAGODA_CHECK(!empty());
    T item = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ > items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // items_[head_..] are queued
};

}  // namespace pagoda::common
