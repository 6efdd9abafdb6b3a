#include "pa/w/link.h"

namespace pa::w {

void Link::ship() {
  check::MutexLock lock(park_);  // rank 14 held across the send: legal
  conn_->send("frame");
}

void Link::ship_leaf() {
  check::MutexLock lock(leaf_);  // rank 95 held across the send
  conn_->send_gather("frame", 1);
}

}  // namespace pa::w
