#include "net/topology.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

namespace ddbg {

namespace {

[[nodiscard]] std::uint64_t pair_key(ProcessId source, ProcessId destination) {
  return (static_cast<std::uint64_t>(source.value()) << 32) |
         destination.value();
}

}  // namespace

Topology::Topology(std::uint32_t num_processes) {
  for (std::uint32_t i = 0; i < num_processes; ++i) add_process();
}

ProcessId Topology::add_process() {
  DDBG_ASSERT(out_channels_.size() < ProcessId::kInvalid,
              "process id space exhausted");
  const ProcessId id(static_cast<std::uint32_t>(out_channels_.size()));
  out_channels_.emplace_back();
  in_channels_.emplace_back();
  return id;
}

ChannelId Topology::add_channel(ProcessId source, ProcessId destination,
                                bool is_control) {
  DDBG_ASSERT(source.value() < num_processes(), "channel source must exist");
  DDBG_ASSERT(destination.value() < num_processes(),
              "channel destination must exist");
  DDBG_ASSERT(source != destination, "self-channels are not modeled");
  DDBG_ASSERT(channels_.size() < ChannelId::kInvalid,
              "channel id space exhausted");
  const ChannelId id(static_cast<std::uint32_t>(channels_.size()));
  std::vector<ChannelId>& out = out_channels_[source.value()];
  std::vector<ChannelId>& in = in_channels_[destination.value()];
  channels_.push_back(ChannelSpec{id, source, destination, is_control});
  in_slot_.push_back(static_cast<std::uint32_t>(in.size()));
  out_slot_.push_back(static_cast<std::uint32_t>(out.size()));
  out.push_back(id);
  in.push_back(id);
  if (!is_control) {
    // Keep the first data channel per pair (channel_between's contract).
    data_channel_index_.try_emplace(pair_key(source, destination), id);
  }
  return id;
}

Topology Topology::with_debugger() const {
  DDBG_ASSERT(!has_debugger(), "topology already has a debugger process");
  Topology extended = *this;
  const ProcessId d = extended.add_process();
  extended.debugger_ = d;
  const std::uint32_t users = num_processes();
  extended.num_tier_ = 1;
  extended.init_tier_metadata();
  for (std::uint32_t i = 0; i < users; ++i) {
    const ProcessId p(i);
    extended.control_to_[i] = extended.add_channel(d, p, /*is_control=*/true);
    extended.control_from_[i] =
        extended.add_channel(p, d, /*is_control=*/true);
    extended.tier_parent_[i] = d;
    extended.tier_children_[d.value()].push_back(p);
  }
  return extended;
}

Topology Topology::with_debugger_tree(std::uint32_t fanout) const {
  DDBG_ASSERT(!has_debugger(), "topology already has a debugger process");
  DDBG_ASSERT(fanout >= 2, "debugger tier needs fan-out of at least 2");
  Topology extended = *this;
  const std::uint32_t users = num_processes();
  // Count the tier up front so metadata vectors can be sized once.
  std::uint32_t tier = 0;
  for (std::uint32_t width = users; width > 1;
       width = (width + fanout - 1) / fanout) {
    tier += (width + fanout - 1) / fanout;
  }
  if (users == 1) tier = 1;  // degenerate: the root alone oversees one user
  extended.num_tier_ = tier;
  extended.tier_fanout_ = fanout;
  for (std::uint32_t i = 0; i < tier; ++i) extended.add_process();
  extended.debugger_ = ProcessId(users + tier - 1);  // root appended last
  extended.init_tier_metadata();

  // Build level by level: group the current level `fanout` at a time under
  // freshly numbered parents, keeping user order so every subtree covers a
  // contiguous user range.
  std::vector<ProcessId> level;
  level.reserve(users);
  for (std::uint32_t i = 0; i < users; ++i) level.emplace_back(i);
  std::uint32_t next_tier_id = users;
  while (level.size() > 1 || next_tier_id == users) {
    const std::size_t groups = (level.size() + fanout - 1) / fanout;
    std::vector<ProcessId> parents;
    parents.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      const ProcessId parent(next_tier_id++);
      std::uint32_t lo = 0xffffffffu;
      std::uint32_t hi = 0;
      const std::size_t begin = g * fanout;
      const std::size_t end = std::min(begin + fanout, level.size());
      for (std::size_t c = begin; c < end; ++c) {
        const ProcessId child = level[c];
        extended.control_to_[child.value()] =
            extended.add_channel(parent, child, /*is_control=*/true);
        extended.control_from_[child.value()] =
            extended.add_channel(child, parent, /*is_control=*/true);
        extended.tier_parent_[child.value()] = parent;
        extended.tier_children_[parent.value()].push_back(child);
        const auto range = extended.tier_user_range_[child.value()];
        lo = std::min(lo, range.first);
        hi = std::max(hi, range.second);
      }
      extended.tier_user_range_[parent.value()] = {lo, hi};
      parents.push_back(parent);
    }
    level = std::move(parents);
  }
  DDBG_ASSERT(level.size() == 1 && level[0] == extended.debugger_,
              "tier construction must end at the root");
  return extended;
}

void Topology::init_tier_metadata() {
  const std::uint32_t n = num_processes();
  tier_parent_.assign(n, ProcessId());
  tier_children_.assign(n, {});
  tier_user_range_.assign(n, {0, 0});
  const std::uint32_t users = num_user_processes();
  for (std::uint32_t i = 0; i < users; ++i) tier_user_range_[i] = {i, i + 1};
  for (std::uint32_t i = users; i < n; ++i) tier_user_range_[i] = {0, users};
  control_to_.resize(n);
  control_from_.resize(n);
}

std::uint32_t Topology::num_user_processes() const {
  return num_processes() - num_tier_;
}

ProcessId Topology::tier_parent(ProcessId p) const {
  DDBG_ASSERT(has_debugger(), "no debugger in this topology");
  DDBG_ASSERT(p.value() < tier_parent_.size(), "unknown process id");
  return tier_parent_[p.value()];
}

std::span<const ProcessId> Topology::tier_children(ProcessId p) const {
  DDBG_ASSERT(has_debugger(), "no debugger in this topology");
  DDBG_ASSERT(p.value() < tier_children_.size(), "unknown process id");
  return tier_children_[p.value()];
}

std::pair<std::uint32_t, std::uint32_t> Topology::tier_user_range(
    ProcessId p) const {
  DDBG_ASSERT(has_debugger(), "no debugger in this topology");
  DDBG_ASSERT(p.value() < tier_user_range_.size(), "unknown process id");
  return tier_user_range_[p.value()];
}

const ChannelSpec& Topology::channel(ChannelId id) const {
  DDBG_ASSERT(id.value() < channels_.size(), "unknown channel id");
  return channels_[id.value()];
}

std::span<const ChannelId> Topology::out_channels(ProcessId p) const {
  DDBG_ASSERT(p.value() < num_processes(), "unknown process id");
  return out_channels_[p.value()];
}

std::span<const ChannelId> Topology::in_channels(ProcessId p) const {
  DDBG_ASSERT(p.value() < num_processes(), "unknown process id");
  return in_channels_[p.value()];
}

std::optional<ChannelId> Topology::channel_between(
    ProcessId source, ProcessId destination) const {
  DDBG_ASSERT(source.value() < num_processes(), "unknown process id");
  const auto it = data_channel_index_.find(pair_key(source, destination));
  if (it == data_channel_index_.end()) return std::nullopt;
  return it->second;
}

ChannelId Topology::control_to(ProcessId p) const {
  DDBG_ASSERT(has_debugger(), "no debugger in this topology");
  DDBG_ASSERT(p != debugger_, "the tier root has no parent channel");
  DDBG_ASSERT(p.value() < control_to_.size(), "unknown process id");
  return control_to_[p.value()];
}

ChannelId Topology::control_from(ProcessId p) const {
  DDBG_ASSERT(has_debugger(), "no debugger in this topology");
  DDBG_ASSERT(p != debugger_, "the tier root has no parent channel");
  DDBG_ASSERT(p.value() < control_from_.size(), "unknown process id");
  return control_from_[p.value()];
}

std::vector<ProcessId> Topology::process_ids() const {
  std::vector<ProcessId> ids;
  ids.reserve(num_processes());
  for (std::uint32_t i = 0; i < num_processes(); ++i) ids.emplace_back(i);
  return ids;
}

std::vector<ProcessId> Topology::user_process_ids() const {
  std::vector<ProcessId> ids;
  ids.reserve(num_user_processes());
  for (std::uint32_t i = 0; i < num_user_processes(); ++i) ids.emplace_back(i);
  return ids;
}

namespace {

// Iterative Tarjan SCC.
class TarjanScc {
 public:
  explicit TarjanScc(const Topology& topology) : topology_(topology) {
    const std::uint32_t n = topology.num_processes();
    index_.assign(n, kUnvisited);
    lowlink_.assign(n, 0);
    on_stack_.assign(n, false);
  }

  std::size_t count_components() {
    for (std::uint32_t v = 0; v < topology_.num_processes(); ++v) {
      if (index_[v] == kUnvisited) strong_connect(v);
    }
    return components_;
  }

 private:
  static constexpr std::uint32_t kUnvisited = 0xffffffffu;

  void strong_connect(std::uint32_t root) {
    // Explicit stack frames to avoid deep recursion on long pipelines.
    struct Frame {
      std::uint32_t vertex;
      std::size_t next_edge = 0;
    };
    std::vector<Frame> call_stack{{root}};
    visit(root);
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const auto out = topology_.out_channels(ProcessId(frame.vertex));
      if (frame.next_edge < out.size()) {
        const std::uint32_t w =
            topology_.channel(out[frame.next_edge]).destination.value();
        ++frame.next_edge;
        if (index_[w] == kUnvisited) {
          visit(w);
          call_stack.push_back(Frame{w});
        } else if (on_stack_[w]) {
          lowlink_[frame.vertex] =
              std::min(lowlink_[frame.vertex], index_[w]);
        }
      } else {
        const std::uint32_t v = frame.vertex;
        if (lowlink_[v] == index_[v]) {
          ++components_;
          while (true) {
            const std::uint32_t w = scc_stack_.back();
            scc_stack_.pop_back();
            on_stack_[w] = false;
            if (w == v) break;
          }
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const std::uint32_t parent = call_stack.back().vertex;
          lowlink_[parent] = std::min(lowlink_[parent], lowlink_[v]);
        }
      }
    }
  }

  void visit(std::uint32_t v) {
    index_[v] = next_index_;
    lowlink_[v] = next_index_;
    ++next_index_;
    scc_stack_.push_back(v);
    on_stack_[v] = true;
  }

  const Topology& topology_;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> lowlink_;
  std::vector<bool> on_stack_;
  std::vector<std::uint32_t> scc_stack_;
  std::uint32_t next_index_ = 0;
  std::size_t components_ = 0;
};

}  // namespace

bool Topology::strongly_connected() const {
  if (num_processes() == 0) return true;
  return num_strongly_connected_components() == 1;
}

std::size_t Topology::num_strongly_connected_components() const {
  return TarjanScc(*this).count_components();
}

std::string Topology::describe() const {
  std::ostringstream out;
  out << num_processes() << " processes";
  if (has_debugger()) out << " (incl. debugger " << to_string(debugger_) << ")";
  out << ", " << num_channels() << " channels";
  return out.str();
}

Topology Topology::ring(std::uint32_t n) {
  DDBG_ASSERT(n >= 2, "ring needs at least 2 processes");
  Topology t(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    t.add_channel(ProcessId(i), ProcessId((i + 1) % n));
  }
  return t;
}

Topology Topology::star(std::uint32_t n) {
  DDBG_ASSERT(n >= 2, "star needs at least 2 processes");
  Topology t(n);
  for (std::uint32_t i = 1; i < n; ++i) {
    t.add_channel(ProcessId(0), ProcessId(i));
    t.add_channel(ProcessId(i), ProcessId(0));
  }
  return t;
}

Topology Topology::pipeline(std::uint32_t n) {
  DDBG_ASSERT(n >= 2, "pipeline needs at least 2 processes");
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_channel(ProcessId(i), ProcessId(i + 1));
  }
  return t;
}

Topology Topology::tree(std::uint32_t n, std::uint32_t branching) {
  DDBG_ASSERT(n >= 2, "tree needs at least 2 processes");
  DDBG_ASSERT(branching >= 1, "tree needs fan-out of at least 1");
  Topology t(n);
  // 2 channels per tree edge, n-1 edges.
  t.channels_.reserve(2ULL * (n - 1));
  t.in_slot_.reserve(2ULL * (n - 1));
  t.out_slot_.reserve(2ULL * (n - 1));
  for (std::uint32_t child = 1; child < n; ++child) {
    const std::uint32_t parent = (child - 1) / branching;
    t.add_channel(ProcessId(parent), ProcessId(child));
    t.add_channel(ProcessId(child), ProcessId(parent));
  }
  return t;
}

Topology Topology::complete(std::uint32_t n) {
  DDBG_ASSERT(n >= 2, "complete graph needs at least 2 processes");
  Topology t(n);
  // All ordered pairs: counted in 64 bits — n * (n - 1) overflows uint32
  // from n = 65537, well inside the representable process-id range.
  const std::uint64_t num_channels =
      static_cast<std::uint64_t>(n) * (n - 1);
  DDBG_ASSERT(num_channels < ChannelId::kInvalid,
              "complete graph exceeds the channel id space");
  t.channels_.reserve(num_channels);
  t.in_slot_.reserve(num_channels);
  t.out_slot_.reserve(num_channels);
  t.data_channel_index_.reserve(num_channels);
  for (std::uint32_t i = 0; i < n; ++i) {
    t.out_channels_[i].reserve(n - 1);
    t.in_channels_[i].reserve(n - 1);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i != j) t.add_channel(ProcessId(i), ProcessId(j));
    }
  }
  return t;
}

Topology Topology::random_strongly_connected(std::uint32_t n,
                                             std::uint32_t extra_edges,
                                             Rng& rng) {
  DDBG_ASSERT(n >= 2, "need at least 2 processes");
  Topology t(n);
  // Random permutation ring guarantees strong connectivity.
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
    std::swap(order[i], order[j]);
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> used;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t a = order[i];
    const std::uint32_t b = order[(i + 1) % n];
    t.add_channel(ProcessId(a), ProcessId(b));
    used.insert({a, b});
  }
  const std::uint64_t max_extra =
      static_cast<std::uint64_t>(n) * (n - 1) - used.size();
  std::uint32_t added = 0;
  const auto target = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(extra_edges, max_extra));
  while (added < target) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    if (a == b || used.contains({a, b})) continue;
    t.add_channel(ProcessId(a), ProcessId(b));
    used.insert({a, b});
    ++added;
  }
  return t;
}

Topology Topology::random(std::uint32_t n, double edge_probability, Rng& rng) {
  DDBG_ASSERT(n >= 1, "need at least 1 process");
  Topology t(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (i != j && rng.next_bool(edge_probability)) {
        t.add_channel(ProcessId(i), ProcessId(j));
      }
    }
  }
  return t;
}

}  // namespace ddbg
