/**
 * @file
 * The retrieval index under every cache: the exact flat scan
 * (FlatIndex, index.hh), under the names a serving config builds it by.
 *
 * The paper retrieves with an exact cosine scan whose cost is
 * negligible next to denoising, and every workload here caches at most
 * 10k 64-dim rows per node, where the scan is as fast as any
 * approximate index (docs/RETRIEVAL.md has the numbers). So one index
 * serves every cache, and its configuration is empty.
 */

#ifndef MODM_EMBEDDING_VECTOR_INDEX_HH
#define MODM_EMBEDDING_VECTOR_INDEX_HH

#include <memory>

#include "src/embedding/index.hh"

namespace modm::embedding {

/** The retrieval index every cache holds. */
using VectorIndex = FlatIndex;

/** Retrieval settings of a serving config: the flat scan takes none. */
struct RetrievalBackendConfig
{
};

/** An empty index for embeddings of dimension `dim`. */
inline std::unique_ptr<VectorIndex>
makeVectorIndex(const RetrievalBackendConfig &config, std::size_t dim)
{
    (void)config;
    return std::make_unique<VectorIndex>(dim);
}

} // namespace modm::embedding

#endif // MODM_EMBEDDING_VECTOR_INDEX_HH
