#include "ops.h"

#include <algorithm>
#include <utility>

#include "trace.h"

namespace perfbench {

namespace {

constexpr const char* kLabels[] = {"item", "note", "entry", "x"};
/// Attempts at drawing a legal target before the op falls back to an
/// append under the root.
constexpr int kMaxDraws = 64;
/// Largest subtree a delete removes.
constexpr size_t kMaxDeleteNodes = 16;

}  // namespace

OpStream::OpStream(natix::Tree shadow, uint64_t seed)
    : shadow_(std::move(shadow)),
      rng_(seed),
      size_floor_(shadow_.live_count()) {}

natix::NodeId OpStream::PickLive() {
  for (int i = 0; i < 256; ++i) {
    const auto v = static_cast<natix::NodeId>(rng_.NextBounded(shadow_.size()));
    if (shadow_.IsAlive(v)) return v;
  }
  return shadow_.root();
}

natix::NodeId OpStream::PickElement() {
  for (int i = 0; i < kMaxDraws; ++i) {
    const natix::NodeId v = PickLive();
    if (shadow_.KindOf(v) == natix::NodeKind::kElement) return v;
  }
  return shadow_.root();
}

natix::NodeId OpStream::PickChildOf(natix::NodeId parent) {
  const size_t n = shadow_.ChildCount(parent);
  if (n == 0) return natix::kInvalidNode;
  natix::NodeId c = shadow_.FirstChild(parent);
  for (uint64_t skip = rng_.NextBounded(n); skip > 0; --skip) {
    c = shadow_.NextSibling(c);
  }
  return c;
}

bool OpStream::SubtreeAtMost(natix::NodeId v, size_t cap) const {
  std::vector<natix::NodeId> stack = {v};
  size_t n = 0;
  while (!stack.empty()) {
    const natix::NodeId u = stack.back();
    stack.pop_back();
    if (++n > cap) return false;
    for (natix::NodeId c = shadow_.FirstChild(u); c != natix::kInvalidNode;
         c = shadow_.NextSibling(c)) {
      stack.push_back(c);
    }
  }
  return true;
}

Op OpStream::Next() {
  Span span("bench:opgen");
  uint64_t roll = rng_.NextBounded(100);
  if (roll >= 40 && roll < 70 && shadow_.live_count() < size_floor_) roll = 0;
  const natix::NodeId root = shadow_.root();
  Op op;
  for (int draw = 0; draw < kMaxDraws; ++draw) {
    if (roll < 40) {
      op.kind = OpKind::kInsert;
      op.node = PickElement();
      op.before = rng_.NextBool(0.4) ? PickChildOf(op.node) : natix::kInvalidNode;
      if (rng_.NextBool(0.5)) {
        op.node_kind = natix::NodeKind::kText;
        op.content.assign(1 + rng_.NextBounded(40),
                          static_cast<char>('a' + rng_.NextBounded(26)));
      } else {
        op.label = kLabels[rng_.NextBounded(4)];
      }
      return op;
    }
    if (roll < 70) {
      op.kind = OpKind::kDelete;
      op.node = PickLive();
      if (op.node != root && SubtreeAtMost(op.node, kMaxDeleteNodes)) {
        return op;
      }
    } else if (roll < 90) {
      op.kind = OpKind::kMove;
      op.node = PickLive();
      op.parent = PickElement();
      if (op.node != root && !shadow_.IsAncestorOrSelf(op.node, op.parent)) {
        op.before =
            rng_.NextBool(0.5) ? PickChildOf(op.parent) : natix::kInvalidNode;
        if (op.before == op.node) op.before = natix::kInvalidNode;
        return op;
      }
    } else {
      op.kind = OpKind::kRename;
      op.node = PickElement();
      op.label = kLabels[rng_.NextBounded(4)];
      return op;
    }
  }
  op = Op();
  op.node = root;
  op.label = kLabels[0];
  return op;
}

natix::Status OpStream::Apply(natix::NatixStore* store, const Op& op,
                              uint64_t* call_ns) {
  switch (op.kind) {
    case OpKind::kInsert: {
      natix::Result<natix::NodeId> got =
          TimedCall("storage.store:insert", call_ns, [&] {
            return store->InsertBefore(op.node, op.before, op.label,
                                       op.node_kind, op.content);
          });
      if (!got.ok()) return got.status();
      Span span("bench:shadow");
      const natix::NodeId want = shadow_.InsertChildBefore(
          op.node, op.before, 1, op.label, op.node_kind);
      if (*got != want) {
        return natix::Status::Internal("insert returned node " +
                                       std::to_string(*got) + ", expected " +
                                       std::to_string(want));
      }
      return natix::Status::OK();
    }
    case OpKind::kDelete: {
      natix::Result<std::vector<natix::NodeId>> got =
          TimedCall("storage.store:delete", call_ns,
                    [&] { return store->DeleteSubtree(op.node); });
      if (!got.ok()) return got.status();
      Span span("bench:shadow");
      std::vector<natix::NodeId> want;
      shadow_.RemoveSubtree(op.node, &want);
      std::vector<natix::NodeId> removed = *std::move(got);
      std::sort(removed.begin(), removed.end());
      std::sort(want.begin(), want.end());
      if (removed != want) {
        return natix::Status::Internal("delete of node " +
                                       std::to_string(op.node) +
                                       " removed a different node set");
      }
      return natix::Status::OK();
    }
    case OpKind::kMove: {
      const natix::Status st =
          TimedCall("storage.store:move", call_ns, [&] {
            return store->MoveSubtree(op.node, op.parent, op.before);
          });
      if (!st.ok()) return st;
      Span span("bench:shadow");
      shadow_.MoveSubtree(op.node, op.parent, op.before);
      return natix::Status::OK();
    }
    case OpKind::kRename: {
      const natix::Status st =
          TimedCall("storage.store:rename", call_ns,
                    [&] { return store->Rename(op.node, op.label); });
      if (!st.ok()) return st;
      Span span("bench:shadow");
      shadow_.SetLabel(op.node, op.label);
      return natix::Status::OK();
    }
  }
  return natix::Status::Internal("unknown op kind");
}

}  // namespace perfbench
