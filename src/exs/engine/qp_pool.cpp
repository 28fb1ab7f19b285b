#include "exs/engine/qp_pool.hpp"

#include "common/check.hpp"
#include "common/logging.hpp"

namespace exs::engine {

QpPool::QpPool(verbs::Device& device, QpPoolOptions options,
               metrics::Registry* registry)
    : options_(options), group_(device, options.mux) {
  EXS_CHECK_MSG(options_.max_streams >= 1, "QP pool admits at least one");
  EXS_CHECK_MSG(options_.max_streams <= 65536,
                "max_streams exceeds the 16-bit wire stream-id space");
  if (registry != nullptr) {
    registry->Bind("mux.admission_refusals", "connections", refusals_);
  }
}

bool QpPool::AdmissionOpen() const {
  return LiveStreams() < options_.max_streams;
}

std::unique_ptr<MuxStream> QpPool::Admit(std::uint32_t stream_id) {
  if (!AdmissionOpen() || group_.FindStream(stream_id) != nullptr) {
    refusals_.Increment();
    EXS_DEBUG("QP pool refused stream " << stream_id << " ("
                                        << LiveStreams() << " live)");
    return nullptr;
  }
  return group_.AttachStream(stream_id);
}

}  // namespace exs::engine
