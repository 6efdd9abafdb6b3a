#pragma once

namespace pa::w {

class Connection {
 public:
  bool send(const char* frame);

 private:
  check::Mutex mu_{check::LockRank::kNetConnection, "w::connection"};
};

class Link {
 public:
  void ship();
  void ship_leaf();

 private:
  Connection* conn_ = nullptr;
  check::Mutex park_{check::LockRank::kNetRuntime, "w::park"};
  check::Mutex leaf_{check::LockRank::kLeaf, "w::leaf"};
};

}  // namespace pa::w
