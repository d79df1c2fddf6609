#include "arch/topology.hpp"

#include <algorithm>
#include <cstdio>

#include "util/contracts.hpp"

namespace spcd::arch {

Topology::Topology(const TopologySpec& spec) : spec_(spec) {
  SPCD_EXPECTS(spec.sockets >= 1);
  SPCD_EXPECTS(spec.cores_per_socket >= 1);
  SPCD_EXPECTS(spec.smt_per_core >= 1);
  core_of_ctx_.resize(num_contexts());
  socket_of_ctx_.resize(num_contexts());
  socket_of_core_.resize(num_cores());
  for (ContextId ctx = 0; ctx < num_contexts(); ++ctx) {
    core_of_ctx_[ctx] = ctx / spec.smt_per_core;
    socket_of_ctx_[ctx] = ctx / (spec.cores_per_socket * spec.smt_per_core);
  }
  for (CoreId core = 0; core < num_cores(); ++core) {
    socket_of_core_[core] = core / spec.cores_per_socket;
  }
}

std::uint32_t Topology::smt_slot_of(ContextId ctx) const {
  SPCD_EXPECTS(ctx < num_contexts());
  return ctx % spec_.smt_per_core;
}

std::vector<ContextId> Topology::contexts_of_core(CoreId core) const {
  SPCD_EXPECTS(core < num_cores());
  std::vector<ContextId> out;
  out.reserve(spec_.smt_per_core);
  for (std::uint32_t s = 0; s < spec_.smt_per_core; ++s) {
    out.push_back(core * spec_.smt_per_core + s);
  }
  return out;
}

std::vector<CoreId> Topology::cores_of_socket(SocketId socket) const {
  SPCD_EXPECTS(socket < num_sockets());
  std::vector<CoreId> out;
  out.reserve(spec_.cores_per_socket);
  for (std::uint32_t c = 0; c < spec_.cores_per_socket; ++c) {
    out.push_back(socket * spec_.cores_per_socket + c);
  }
  return out;
}

std::uint32_t Topology::numa_hops(SocketId a, SocketId b) const {
  SPCD_EXPECTS(a < num_sockets() && b < num_sockets());
  const std::uint32_t d = a > b ? a - b : b - a;
  return std::min(d, spec_.sockets - d);
}

Proximity Topology::proximity(ContextId a, ContextId b) const {
  if (a == b) return Proximity::kSameContext;
  if (core_of(a) == core_of(b)) return Proximity::kSameCore;
  if (socket_of(a) == socket_of(b)) return Proximity::kSameSocket;
  return Proximity::kCrossSocket;
}

std::vector<std::uint32_t> Topology::arity_path() const {
  return {spec_.smt_per_core, spec_.cores_per_socket, spec_.sockets};
}

std::string Topology::describe(ContextId ctx) const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ctx %u (socket %u, core %u, smt %u)", ctx,
                socket_of(ctx), core_of(ctx), smt_slot_of(ctx));
  return buf;
}

}  // namespace spcd::arch
