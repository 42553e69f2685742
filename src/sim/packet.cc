#include "sim/packet.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace flattree {

PacketSim::PacketSim(PacketSimOptions options) : options_{options} {}

void PacketSim::attach_obs(const obs::ObsSink& sink) {
  tracer_ = sink.tracer();
  obs::MetricsRegistry* reg = sink.metrics();
  if (reg == nullptr) {
    c_drops_ = c_rto_ = c_fast_rtx_ = nullptr;
    c_flows_started_ = c_flows_done_ = nullptr;
    c_conversions_ = c_failures_ = c_events_ = nullptr;
    g_heap_max_ = g_arena_ = nullptr;
    h_fct_ = h_queue_depth_ = h_cwnd_ = nullptr;
    return;
  }
  // Engine metrics. All three are commutative across sims (counter add /
  // gauge set_max), so a sharded run exports the same bytes for any thread
  // count: sim.events_processed sums shard totals, the gauges take the max
  // over shards.
  c_events_ = &reg->counter("sim.events_processed");
  g_heap_max_ = &reg->gauge("sim.heap_max");
  g_arena_ = &reg->gauge("sim.arena.high_water");
  c_drops_ = &reg->counter("packet.drops");
  c_rto_ = &reg->counter("packet.rto_timeouts");
  c_fast_rtx_ = &reg->counter("packet.fast_retransmits");
  c_flows_started_ = &reg->counter("packet.flows.started");
  c_flows_done_ = &reg->counter("packet.flows.completed");
  c_conversions_ = &reg->counter("packet.conversions");
  c_failures_ = &reg->counter("packet.failures");
  h_fct_ = &reg->histogram(
      "packet.fct_s", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});
  h_queue_depth_ = &reg->histogram(
      "packet.queue.depth_pkts", {1, 2, 4, 8, 16, 32, 64, 96, 128});
  h_cwnd_ = &reg->histogram("packet.cwnd_pkts",
                            {1, 2, 4, 8, 16, 32, 64, 128, 256});
}

void PacketSim::update_pipes(const Graph& graph, double blackout_s,
                             ConversionScope scope) {
  // Aggregate the new topology's directed capacities (parallel links merge
  // into one logical pipe).
  std::unordered_map<std::uint64_t, double> wanted;
  const auto key = [](std::uint32_t from, std::uint32_t to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  };
  for (std::size_t i = 0; i < graph.link_count(); ++i) {
    const Link& link = graph.link(LinkId{static_cast<std::uint32_t>(i)});
    wanted[key(link.a.value(), link.b.value())] += link.capacity_bps;
    wanted[key(link.b.value(), link.a.value())] += link.capacity_bps;
  }

  const double stall_until = now_ + blackout_s;

  // Reconcile existing pipes: keep matches, kill removals.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> new_map(
      graph.node_count());
  for (std::uint32_t from = 0; from < pipe_map_.size(); ++from) {
    for (const auto& [to, pipe_index] : pipe_map_[from]) {
      Pipe& pipe = pipes_[pipe_index];
      const auto it = wanted.find(key(from, to));
      if (it == wanted.end()) {
        // Circuit rewired away: everything queued on it is lost. The dead
        // pipe stays in the map so a later recovery resurrects the same
        // index — subflows hold pipe indices, and a flow whose route is
        // unchanged across fail + recover must come back to a live pipe.
        pipe.dead = true;
        count_drop(pipe.queue.size());
        pipe.queue.clear();
        pipe.queued_bytes = 0;
        if (from < new_map.size()) {
          new_map[from].emplace_back(to, pipe_index);
        }
        continue;
      }
      if (pipe.dead) {
        // The circuit is back (failure recovered): revive in place. The
        // queue is already empty; traffic resumes on the next send.
        pipe.dead = false;
        pipe.rate_bps = it->second;
        pipe.blocked_until = std::max(pipe.blocked_until, stall_until);
      }
      if (pipe.rate_bps != it->second) {
        // Cable re-terminated at a different rate: treat as rewired.
        pipe.rate_bps = it->second;
        count_drop(pipe.queue.size());
        pipe.queue.clear();
        pipe.queued_bytes = 0;
        pipe.blocked_until = std::max(pipe.blocked_until, stall_until);
      }
      if (scope == ConversionScope::kFullBlackout) {
        pipe.blocked_until = std::max(pipe.blocked_until, stall_until);
      }
      if (from < new_map.size()) {
        new_map[from].emplace_back(to, pipe_index);
      }
      wanted.erase(it);
    }
  }
  // Create pipes for newly-wired circuits; they stall for the blackout.
  for (const auto& [k, capacity] : wanted) {
    const std::uint32_t from = static_cast<std::uint32_t>(k >> 32);
    const std::uint32_t to = static_cast<std::uint32_t>(k & 0xffffffffu);
    Pipe pipe;
    pipe.rate_bps = capacity;
    pipe.blocked_until = stall_until;
    new_map[from].emplace_back(to, static_cast<std::uint32_t>(pipes_.size()));
    pipes_.push_back(std::move(pipe));
  }
  pipe_map_ = std::move(new_map);
}

void PacketSim::set_network(const Graph& graph) {
  update_pipes(graph, 0.0, ConversionScope::kChangedOnly);
  network_set_ = true;
}

std::uint32_t PacketSim::pipe_between(NodeId from, NodeId to) const {
  for (const auto& [peer, pipe] : pipe_map_.at(from.index())) {
    if (peer == to.value()) return pipe;
  }
  throw std::logic_error("PacketSim: no pipe between nodes");
}

std::vector<std::uint32_t> PacketSim::pipes_for(const Path& path) const {
  std::vector<std::uint32_t> pipes;
  pipes.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    pipes.push_back(pipe_between(path[i], path[i + 1]));
  }
  return pipes;
}

void PacketSim::attach_subflows(std::uint32_t flow_index,
                                std::vector<Path> paths) {
  SimFlow& flow = flows_[flow_index];
  for (Path& path : paths) {
    Subflow sf;
    sf.flow = flow_index;
    sf.fwd_pipes = pipes_for(path);
    Path reversed(path.rbegin(), path.rend());
    sf.rev_pipes = pipes_for(reversed);
    sf.cwnd = options_.init_cwnd;
    sf.rto = options_.initial_rto_s;
    flow.subflows.push_back(static_cast<std::uint32_t>(subflows_.size()));
    subflows_.push_back(std::move(sf));
  }
  flow.current_paths = std::move(paths);
}

std::uint32_t PacketSim::add_flow(std::uint32_t src_server,
                                  std::uint32_t dst_server, double bytes,
                                  double start_s,
                                  std::vector<Path> subflow_paths) {
  if (!network_set_) {
    throw std::logic_error("PacketSim: set_network before add_flow");
  }
  if (subflow_paths.empty()) {
    throw std::invalid_argument("PacketSim: flow needs at least one subflow");
  }
  SimFlow flow;
  flow.src = src_server;
  flow.dst = dst_server;
  flow.start_s = start_s;
  if (bytes > 0) {
    flow.total_packets =
        static_cast<std::int64_t>(std::ceil(bytes / options_.mtu_bytes));
    flow.unassigned = flow.total_packets;
  } else {
    flow.total_packets = -1;
    flow.unassigned = -1;
  }
  const std::uint32_t flow_index = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(std::move(flow));
  attach_subflows(flow_index, std::move(subflow_paths));
  schedule(start_s, EventType::kFlowStart, flow_index, 0);
  return flow_index;
}

void PacketSim::schedule(double t, EventType type, std::uint32_t a,
                         std::uint32_t b, const Packet& packet) {
  // Tie-break contract: equal-timestamp events fire in scheduling order.
  // The pooled queue sequences pushes internally; the reference queue
  // carries the explicit order_ counter. Either way the order is a pure
  // function of the simulation, never of heap layout.
  if (options_.engine == PacketEngine::kPooled) {
    EventPayload& payload = queue_.emplace(t);
    payload.type = type;
    payload.a = a;
    payload.b = b;
    payload.packet = packet;
    if (queue_.size() > heap_max_) heap_max_ = queue_.size();
    return;
  }
  Event event;
  event.t = t;
  event.order = order_++;
  event.payload.type = type;
  event.payload.a = a;
  event.payload.b = b;
  event.payload.packet = packet;
  events_.push(std::move(event));
  if (events_.size() > heap_max_) heap_max_ = events_.size();
}

void PacketSim::dispatch(const EventPayload& event) {
  switch (event.type) {
    case EventType::kArrival:
      handle_arrival(event);
      break;
    case EventType::kPipeFree: {
      Pipe& pipe = pipes_[event.a];
      pipe.transmitting = false;
      if (!pipe.dead) pipe_try_send(event.a);
      break;
    }
    case EventType::kTimer:
      handle_timer(event);
      break;
    case EventType::kFlowStart:
      start_flow(event.a);
      break;
  }
}

void PacketSim::run_until(double t_s) {
  std::uint64_t processed = 0;
  if (options_.engine == PacketEngine::kPooled) {
    while (!queue_.empty() && queue_.top_time() <= t_s) {
      double t = 0.0;
      const EventPayload event = queue_.pop(&t);
      now_ = std::max(now_, t);
      ++events_done_;
      ++segment_.events_processed;
      ++processed;
      dispatch(event);
    }
  } else {
    while (!events_.empty() && events_.top().t <= t_s) {
      const Event event = events_.top();
      events_.pop();
      now_ = std::max(now_, event.t);
      ++events_done_;
      ++segment_.events_processed;
      ++processed;
      dispatch(event.payload);
    }
  }
  now_ = std::max(now_, t_s);
  if (processed > 0) {
    obs::add(c_events_, processed);
    obs::set_max(g_heap_max_, static_cast<double>(heap_max_));
    obs::set_max(g_arena_, static_cast<double>(arena_high_water()));
  }
}

std::uint64_t PacketSim::arena_high_water() const {
  // The reference engine has no arena; its queue peak is the analogue.
  return options_.engine == PacketEngine::kPooled ? queue_.arena_slots()
                                                  : heap_max_;
}

void PacketSim::start_flow(std::uint32_t flow_index) {
  SimFlow& flow = flows_[flow_index];
  if (flow.done) return;
  flow.started = true;
  obs::add(c_flows_started_);
  maybe_send(flow_index);
}

void PacketSim::maybe_send(std::uint32_t flow_index) {
  SimFlow& flow = flows_[flow_index];
  if (!flow.started || flow.done) return;
  // Round-robin over subflows until every window is full or the flow runs
  // out of unassigned packets.
  bool progress = true;
  while (progress && (flow.unassigned != 0)) {
    progress = false;
    for (std::uint32_t sf_index : flow.subflows) {
      Subflow& sf = subflows_[sf_index];
      if (!sf.alive) continue;
      if (flow.unassigned == 0) break;
      const double inflight = static_cast<double>(sf.next_seq - sf.cum_acked);
      if (inflight + 1.0 > sf.cwnd + 1e-9) continue;
      if (flow.unassigned > 0) --flow.unassigned;
      ++sf.inflight_assigned;
      subflow_send_packet(flow_index, sf_index, sf.next_seq++, false);
      progress = true;
    }
  }
}

void PacketSim::subflow_send_packet(std::uint32_t flow_index,
                                    std::uint32_t sf_index, std::uint32_t seq,
                                    bool is_retransmit) {
  Subflow& sf = subflows_[sf_index];
  Packet packet;
  packet.flow = flow_index;
  packet.subflow = sf_index;
  packet.seq = seq;
  packet.size = options_.mtu_bytes;
  packet.send_time = now_;
  packet.hop = 0;
  packet.is_ack = false;
  (void)is_retransmit;
  sf.last_send_time = now_;
  enqueue_packet(sf.fwd_pipes.front(), packet);
  if (!sf.timer_armed) arm_timer(flow_index, sf_index);
}

void PacketSim::enqueue_packet(std::uint32_t pipe_index,
                               const Packet& packet) {
  Pipe& pipe = pipes_[pipe_index];
  if (pipe.dead) {
    count_drop();  // the cable this route relied on has been rewired away
    return;
  }
  const std::uint64_t limit =
      static_cast<std::uint64_t>(options_.queue_packets) * options_.mtu_bytes;
  if (pipe.queued_bytes + packet.size > limit) {
    count_drop();
    return;
  }
  pipe.queued_bytes += packet.size;
  pipe.queue.push_back(packet);
  obs::record(h_queue_depth_, static_cast<double>(pipe.queue.size()));
  pipe_try_send(pipe_index);
}

void PacketSim::pipe_try_send(std::uint32_t pipe_index) {
  Pipe& pipe = pipes_[pipe_index];
  if (pipe.transmitting || pipe.queue.empty()) return;
  Packet packet = pipe.queue.front();
  pipe.queue.pop_front();
  pipe.queued_bytes -= packet.size;
  pipe.transmitting = true;
  const double start = std::max(now_, pipe.blocked_until);
  const double tx_done = start + packet.size * 8.0 / pipe.rate_bps;
  schedule(tx_done, EventType::kPipeFree, pipe_index, 0);
  schedule(tx_done + options_.prop_delay_s, EventType::kArrival, pipe_index, 0,
           packet);
}

void PacketSim::handle_arrival(const EventPayload& event) {
  const Packet& packet = event.packet;
  Subflow& sf = subflows_[packet.subflow];
  if (!sf.alive) {
    count_drop();  // this subflow was replaced by a conversion mid-flight
    return;
  }
  const auto& pipes = packet.is_ack ? sf.rev_pipes : sf.fwd_pipes;
  const std::uint16_t next_hop = packet.hop + 1;
  if (next_hop < pipes.size()) {
    Packet forwarded = packet;
    forwarded.hop = next_hop;
    enqueue_packet(pipes[next_hop], forwarded);
    return;
  }
  // Delivered to the end host.
  if (packet.is_ack) {
    on_ack_at_sender(packet);
  } else {
    on_data_at_receiver(packet);
  }
}

void PacketSim::on_data_at_receiver(const Packet& packet) {
  Subflow& sf = subflows_[packet.subflow];
  if (packet.seq == sf.expect_seq) {
    ++sf.expect_seq;
    while (sf.out_of_order.erase(sf.expect_seq)) ++sf.expect_seq;
  } else if (packet.seq > sf.expect_seq) {
    sf.out_of_order.insert(packet.seq);
  }
  // Immediate cumulative ACK, echoing the data packet's timestamp.
  Packet ack;
  ack.flow = packet.flow;
  ack.subflow = packet.subflow;
  ack.seq = sf.expect_seq;
  ack.size = options_.ack_bytes;
  ack.send_time = packet.send_time;
  ack.hop = 0;
  ack.is_ack = true;
  enqueue_packet(sf.rev_pipes.front(), ack);
}

void PacketSim::increase_cwnd(SimFlow& flow, Subflow& subflow) {
  if (subflow.cwnd < subflow.ssthresh) {
    subflow.cwnd += 1.0;  // slow start
    return;
  }
  if (!options_.mptcp_coupled || flow.subflows.size() == 1) {
    subflow.cwnd += 1.0 / subflow.cwnd;  // Reno congestion avoidance
    return;
  }
  // MPTCP Linked Increase (LIA): cwnd_r += min(alpha / cwnd_total,
  // 1 / cwnd_r) per ACK, with alpha coupling the subflows so the flow takes
  // as much as a single TCP on its best path.
  double total_cwnd = 0;
  double best_ratio = 0;       // max_i cwnd_i / rtt_i^2
  double sum_ratio = 0;        // sum_i cwnd_i / rtt_i
  for (std::uint32_t sf_index : flow.subflows) {
    const Subflow& sf = subflows_[sf_index];
    if (!sf.alive) continue;
    const double rtt =
        sf.srtt > 0 ? sf.srtt : options_.initial_rtt_estimate_s;
    total_cwnd += sf.cwnd;
    best_ratio = std::max(best_ratio, sf.cwnd / (rtt * rtt));
    sum_ratio += sf.cwnd / rtt;
  }
  if (total_cwnd <= 0 || sum_ratio <= 0) {
    subflow.cwnd += 1.0 / subflow.cwnd;
    return;
  }
  const double alpha = total_cwnd * best_ratio / (sum_ratio * sum_ratio);
  subflow.cwnd += std::min(alpha / total_cwnd, 1.0 / subflow.cwnd);
}

void PacketSim::on_ack_at_sender(const Packet& packet) {
  SimFlow& flow = flows_[packet.flow];
  Subflow& sf = subflows_[packet.subflow];
  if (flow.done) return;

  if (packet.seq > sf.cum_acked) {
    const std::uint32_t newly = packet.seq - sf.cum_acked;
    sf.cum_acked = packet.seq;
    sf.dup_acks = 0;
    sf.inflight_assigned -= std::min(sf.inflight_assigned, newly);
    flow.packets_acked += newly;
    flow.bytes_acked +=
        static_cast<std::uint64_t>(newly) * options_.mtu_bytes;
    segment_.bytes_acked +=
        static_cast<std::uint64_t>(newly) * options_.mtu_bytes;

    // RTT sample from the echoed timestamp (Karn-safe enough here: the
    // timestamp rides the data packet that triggered this cumulative ACK).
    const double sample = now_ - packet.send_time;
    if (sample > 0) {
      if (sf.srtt == 0) {
        sf.srtt = sample;
        sf.rttvar = sample / 2;
      } else {
        const double err = sample - sf.srtt;
        sf.srtt += 0.125 * err;
        sf.rttvar += 0.25 * (std::fabs(err) - sf.rttvar);
      }
      sf.rto = std::clamp(sf.srtt + 4 * sf.rttvar, options_.min_rto_s,
                          options_.max_rto_s);
    }

    if (sf.in_recovery) {
      if (sf.cum_acked >= sf.recover_point) {
        sf.in_recovery = false;  // full recovery
        sf.cwnd = sf.ssthresh;
      } else {
        // NewReno partial ACK: the next hole is lost too; retransmit it
        // immediately without waiting for three more duplicate ACKs.
        subflow_send_packet(packet.flow, packet.subflow, sf.cum_acked, true);
      }
    } else {
      for (std::uint32_t i = 0; i < newly; ++i) increase_cwnd(flow, sf);
      obs::record(h_cwnd_, sf.cwnd);
    }

    // Progress: push the retransmission timer forward.
    sf.rto_deadline = now_ + sf.rto;

    if (flow.total_packets >= 0 &&
        flow.packets_acked >=
            static_cast<std::uint64_t>(flow.total_packets)) {
      flow.done = true;
      flow.finish_s = now_;
      ++segment_.flows_completed;
      obs::add(c_flows_done_);
      obs::record(h_fct_, now_ - flow.start_s);
      if (tracer_ != nullptr) {
        tracer_->span("packet", "flow", flow.start_s, now_ - flow.start_s,
                      packet.flow,
                      static_cast<std::int64_t>(flow.bytes_acked));
      }
      return;
    }
    maybe_send(packet.flow);
  } else if (packet.seq == sf.cum_acked) {
    ++sf.dup_acks;
    if (sf.dup_acks == 3 && sf.next_seq > sf.cum_acked && !sf.in_recovery) {
      // Fast retransmit + multiplicative decrease (NewReno entry).
      sf.in_recovery = true;
      sf.recover_point = sf.next_seq;
      sf.ssthresh = std::max(sf.cwnd / 2.0, 2.0);
      sf.cwnd = sf.ssthresh;
      ++segment_.fast_retransmits;
      obs::add(c_fast_rtx_);
      subflow_send_packet(packet.flow, packet.subflow, sf.cum_acked, true);
    }
  }
}

void PacketSim::arm_timer(std::uint32_t flow_index, std::uint32_t sf_index) {
  Subflow& sf = subflows_[sf_index];
  sf.timer_armed = true;
  sf.rto_deadline = now_ + sf.rto;
  schedule(sf.rto_deadline, EventType::kTimer, flow_index, sf_index);
}

void PacketSim::handle_timer(const EventPayload& event) {
  const std::uint32_t sf_index = event.b;
  Subflow& sf = subflows_[sf_index];
  if (!sf.alive) return;
  SimFlow& flow = flows_[event.a];
  if (flow.done) {
    sf.timer_armed = false;
    return;
  }
  if (sf.next_seq <= sf.cum_acked) {
    sf.timer_armed = false;
    return;  // nothing outstanding
  }
  if (now_ + 1e-12 < sf.rto_deadline) {
    // Progress since this event was scheduled: sleep until the new deadline.
    schedule(sf.rto_deadline, EventType::kTimer, event.a, sf_index);
    return;
  }
  // Retransmission timeout: multiplicative backoff, window collapse,
  // go-back to the first unacked packet. Recovery mode makes each partial
  // ACK retransmit the next hole, so a burst loss (e.g. a rewired circuit
  // dropping a full queue) repairs at one hole per RTT instead of one per
  // RTO.
  sf.ssthresh = std::max(sf.cwnd / 2.0, 2.0);
  sf.cwnd = 1.0;
  sf.dup_acks = 0;
  sf.in_recovery = true;
  sf.recover_point = sf.next_seq;
  sf.rto = std::min(sf.rto * 2.0, options_.max_rto_s);
  sf.timer_armed = false;
  ++segment_.rto_timeouts;
  obs::add(c_rto_);
  subflow_send_packet(event.a, sf_index, sf.cum_acked, true);
  if (!sf.timer_armed) arm_timer(event.a, sf_index);
}

void PacketSim::apply_conversion(
    const Graph& graph,
    const std::function<std::vector<Path>(std::uint32_t)>& paths_for_flow,
    double blackout_s, ConversionScope scope) {
  obs::add(c_conversions_);
  if (tracer_ != nullptr) {
    tracer_->span("packet", "conversion_blackout", now_, blackout_s);
  }
  update_pipes(graph, blackout_s, scope);

  for (std::uint32_t fi = 0; fi < flows_.size(); ++fi) {
    SimFlow& flow = flows_[fi];
    if (flow.done) continue;
    auto paths = paths_for_flow(fi);
    if (paths.empty()) {
      throw std::logic_error("apply_conversion: flow left without paths");
    }
    if (paths == flow.current_paths) {
      // Unchanged route set: the connection rides through warm (its pipes
      // persisted; in-flight packets are only lost where circuits moved).
      continue;
    }
    // Unacked data assigned to the dying subflows goes back to the pool.
    for (std::uint32_t sf_index : flow.subflows) {
      Subflow& sf = subflows_[sf_index];
      if (!sf.alive) continue;
      sf.alive = false;
      if (flow.unassigned >= 0) flow.unassigned += sf.inflight_assigned;
    }
    flow.subflows.clear();
    attach_subflows(fi, std::move(paths));
    if (flow.started) maybe_send(fi);
  }
}

void PacketSim::apply_failure(const Graph& degraded_graph) {
  if (!network_set_) {
    throw std::logic_error("PacketSim: set_network before apply_failure");
  }
  // Pipes missing from the degraded graph die (queues dropped) and swallow
  // everything still routed into them; surviving pipes are untouched — no
  // blackout and no re-pathing until the controller's repair arrives.
  obs::add(c_failures_);
  if (tracer_ != nullptr) tracer_->instant("packet", "failure", now_);
  update_pipes(degraded_graph, 0.0, ConversionScope::kChangedOnly);
}

const std::vector<Path>& PacketSim::flow_paths(std::uint32_t flow) const {
  return flows_.at(flow).current_paths;
}

std::uint64_t PacketSim::flow_bytes_acked(std::uint32_t flow) const {
  return flows_.at(flow).bytes_acked;
}

bool PacketSim::flow_completed(std::uint32_t flow) const {
  return flows_.at(flow).done;
}

double PacketSim::flow_start_time(std::uint32_t flow) const {
  return flows_.at(flow).start_s;
}

double PacketSim::flow_finish_time(std::uint32_t flow) const {
  return flows_.at(flow).finish_s;
}

std::uint64_t PacketSim::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const SimFlow& flow : flows_) total += flow.bytes_acked;
  return total;
}

std::vector<obs::FlowRecord> PacketSim::export_flow_records() const {
  std::vector<obs::FlowRecord> records;
  records.reserve(flows_.size());
  for (const SimFlow& flow : flows_) {
    obs::FlowRecord r;
    r.src = flow.src;
    r.dst = flow.dst;
    r.bytes = static_cast<double>(flow.bytes_acked);
    r.start_s = flow.start_s;
    r.completed = flow.done;
    r.fct_s = flow.done ? flow.finish_s - flow.start_s : 0.0;
    records.push_back(r);
  }
  return records;
}

void run_with_schedule(
    PacketSim& sim, const Graph& base, const FailureSchedule& schedule,
    const std::function<std::vector<Path>(std::uint32_t, const Graph&)>&
        repath,
    double horizon_s, const PacketScheduleOptions& options) {
  // Two steps per schedule event: the data plane breaks (or heals) at the
  // event time, the control plane installs refreshed routes one repair lag
  // later. Ties resolve data-plane first — a repair landing exactly when the
  // next failure strikes still repairs the pre-failure state.
  struct Step {
    double t{0.0};
    bool repair{false};
    std::size_t event{0};
  };
  const auto& events = schedule.events();
  std::vector<Step> steps;
  steps.reserve(2 * events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    steps.push_back({events[i].time_s, false, i});
    steps.push_back({events[i].time_s + options.repair_lag_s, true, i});
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) {
                     if (a.t != b.t) return a.t < b.t;
                     return !a.repair && b.repair;
                   });

  for (const Step& step : steps) {
    if (step.t > horizon_s) break;
    sim.run_until(step.t);
    // Each failure/repair step opens a fresh stats segment so recovery-phase
    // metrics (drops, retransmits, completions) don't inherit samples from
    // the phase before it; the queue-drop burst the step itself causes lands
    // in the new segment.
    sim.begin_segment();
    // The controller reacts to the event this step belongs to: its repair
    // reflects the failure state as of that event (later events get their
    // own, later, repair steps).
    const FailureSet active = schedule.active_at(events[step.event].time_s);
    if (!step.repair) {
      sim.apply_failure(degrade(base, active));
      continue;
    }
    const Graph repaired = degrade(base, active);
    sim.apply_conversion(
        repaired,
        [&](std::uint32_t fi) -> std::vector<Path> {
          auto paths = repath(fi, repaired);
          if (paths.empty()) return sim.flow_paths(fi);  // pair disconnected
          return paths;
        },
        /*blackout_s=*/0.0, ConversionScope::kChangedOnly);
  }
  sim.run_until(horizon_s);
}

}  // namespace flattree
