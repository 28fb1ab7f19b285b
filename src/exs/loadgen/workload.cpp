#include "exs/loadgen/workload.hpp"

#include <charconv>

namespace exs::loadgen {

WorkloadGenerator::WorkloadGenerator(const WorkloadOptions& options,
                                     std::uint64_t seed)
    : options_(options),
      rng_(seed),
      zipf_(options.key_space, options.zipf_theta),
      sizes_(options.size_classes) {}

WorkloadGenerator::Request WorkloadGenerator::Next() {
  Request r;
  const std::uint64_t rank = zipf_.Sample(rng_);
  // "k<rank>", formatted in place: GCC 12 misreports -Wrestrict on string
  // concatenation here under optimisation.
  char key[24] = {'k'};
  r.key.assign(key, std::to_chars(key + 1, key + sizeof key, rank).ptr);
  const double u = rng_.NextDouble();
  if (u < options_.get_fraction) {
    r.op = rpc::Op::kGet;
  } else if (u < options_.get_fraction + options_.put_fraction) {
    r.op = rpc::Op::kPut;
    r.value_len = sizes_.Sample(rng_);
  } else {
    r.op = rpc::Op::kDel;
  }
  return r;
}

void WorkloadGenerator::FillValue(const std::string& key, std::uint8_t* out,
                                  std::uint32_t len) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) h = (h ^ c) * 0x100000001b3ULL;
  SplitMix64 sm(h);
  std::uint64_t word = 0;
  for (std::uint32_t i = 0; i < len; ++i) {
    if (i % 8 == 0) word = sm.Next();
    out[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
  }
}

}  // namespace exs::loadgen
