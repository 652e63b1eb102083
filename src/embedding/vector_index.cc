#include "src/embedding/vector_index.hh"

#include <stdexcept>

#include "src/common/log.hh"
#include "src/embedding/coarse_quantizer.hh"
#include "src/embedding/hnsw_index.hh"
#include "src/embedding/index.hh"
#include "src/embedding/ivf_index.hh"
#include "src/embedding/ivf_pq_index.hh"

namespace modm::embedding {

std::vector<Match>
TopMatches::take()
{
    std::sort(heap_.begin(), heap_.end(), matchBefore);
    return std::move(heap_);
}

namespace {

std::string
num(std::size_t v)
{
    return std::to_string(v);
}

/** Constraints shared by the IVF-coarse-quantized backends. */
std::string
validateIvfCommon(const RetrievalBackendConfig &c)
{
    if (c.nlist < 1)
        return "nlist (" + num(c.nlist) + ") must be >= 1";
    if (c.nlist > CoarseQuantizer::kMaxTrainRows)
        return "nlist (" + num(c.nlist) +
            ") must be <= the training-sample cap (" +
            num(CoarseQuantizer::kMaxTrainRows) + ")";
    if (c.nprobe < 1)
        return "nprobe (" + num(c.nprobe) + ") must be >= 1";
    if (c.nprobe > c.nlist)
        return "nprobe (" + num(c.nprobe) + ") must be <= nlist (" +
            num(c.nlist) + ")";
    return "";
}

} // namespace

const char *
retrievalBackendName(RetrievalBackend kind)
{
    switch (kind) {
      case RetrievalBackend::Flat:
        return "Flat";
      case RetrievalBackend::Ivf:
        return "IVF";
      case RetrievalBackend::Hnsw:
        return "HNSW";
      case RetrievalBackend::IvfPq:
        return "IVF-PQ";
    }
    panic("unknown RetrievalBackend");
}

std::string
validateRetrievalConfig(const RetrievalBackendConfig &config,
                        std::size_t dim)
{
    if (dim == 0)
        return "embedding dimension must be positive";
    switch (config.kind) {
      case RetrievalBackend::Flat:
        return "";
      case RetrievalBackend::Ivf:
        return validateIvfCommon(config);
      case RetrievalBackend::Hnsw:
        if (config.hnswM < 2)
            return "hnswM (" + num(config.hnswM) + ") must be >= 2";
        if (config.efConstruction < config.hnswM)
            return "efConstruction (" + num(config.efConstruction) +
                ") must be >= hnswM (" + num(config.hnswM) + ")";
        if (config.efSearch < 1)
            return "efSearch (" + num(config.efSearch) +
                ") must be >= 1";
        return "";
      case RetrievalBackend::IvfPq: {
        const std::string ivf = validateIvfCommon(config);
        if (!ivf.empty())
            return ivf;
        if (config.pqM < 1)
            return "pqM (" + num(config.pqM) + ") must be >= 1";
        if (dim % config.pqM != 0)
            return "pqM (" + num(config.pqM) +
                ") must divide the embedding dimension (" + num(dim) +
                ")";
        return "";
      }
    }
    return "unknown retrieval backend";
}

std::unique_ptr<VectorIndex>
makeVectorIndex(const RetrievalBackendConfig &config, std::size_t dim)
{
    const std::string error = validateRetrievalConfig(config, dim);
    if (!error.empty())
        throw std::invalid_argument("retrieval config: " + error);
    switch (config.kind) {
      case RetrievalBackend::Flat:
        return std::make_unique<FlatIndex>(dim);
      case RetrievalBackend::Ivf:
        return std::make_unique<IvfIndex>(config, dim);
      case RetrievalBackend::Hnsw:
        return std::make_unique<HnswIndex>(config, dim);
      case RetrievalBackend::IvfPq:
        return std::make_unique<IvfPqIndex>(config, dim);
    }
    panic("unknown RetrievalBackend");
}

} // namespace modm::embedding
