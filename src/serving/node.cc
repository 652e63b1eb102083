#include "src/serving/node.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/common/log.hh"
#include "src/serving/system.hh"

namespace modm::serving {

namespace {

/** Virtual seconds between monitor updates. */
constexpr double kMonitorPeriodS = 60.0;

/** Retrieval latency charged to direct returns (paper: ~0.05 s). */
constexpr double kRetrievalLatencyS = 0.05;

/**
 * Classified-but-undispatched jobs allowed per worker; further arrivals
 * wait unclassified so late requests see an up-to-date cache.
 */
constexpr std::size_t kLookaheadPerWorker = 4;

/** Profiled full-generation throughputs for the monitor. */
MonitorConfig
makeMonitorConfig(const ServingConfig &config)
{
    MonitorConfig mc;
    mc.numWorkers = static_cast<int>(config.numWorkers);
    mc.pLarge = config.largeModel.throughputPerMin(config.gpu);
    mc.pSmall.clear();
    for (const auto &m : config.smallModels)
        mc.pSmall.push_back(m.throughputPerMin(config.gpu));
    mc.totalSteps = config.largeModel.defaultSteps;
    mc.mode = config.mode;
    mc.pid = config.pid;
    return mc;
}

} // namespace

ServingNode::ServingNode(const ServingConfig &node_config,
                         std::size_t node_id, sim::EventQueue &events,
                         ClusterRunState &run, ServingResult &result)
    : config_(node_config), id_(node_id), events_(events), run_(run),
      result_(result),
      sampler_(config_.seed ^ 0x5a3b1e9cULL, config_.sampler,
               config_.schedule),
      scheduler_(std::make_unique<RequestScheduler>(config_)),
      cluster_(config_.numWorkers, config_.gpu),
      largeQueue_(kLookaheadPerWorker * config_.numWorkers),
      smallQueue_(kLookaheadPerWorker * config_.numWorkers),
      periodKCounts_(
          static_cast<std::size_t>(config_.largeModel.defaultSteps) + 1, 0)
{
    MODM_ASSERT(!config_.smallModels.empty() ||
                config_.kind != SystemKind::MoDM,
                "MoDM needs at least one small model");
    MODM_ASSERT(config_.kind != SystemKind::StandaloneSmall ||
                !config_.smallModels.empty(),
                "StandaloneSmall needs its model in smallModels");
    // Disjoint per-node image-id ranges under replication: replicated
    // admission puts one node's generations into sibling caches, where
    // ids must stay unique. Sharded caches never mix id spaces, so
    // they keep the historical per-node ids (and digests) untouched;
    // node 0 keeps base 0 either way.
    if (id_ > 0 &&
        config_.cluster.cachePartitioning == CachePartitioning::Replicated)
        sampler_.offsetImageIds(id_ << 40);

    if (config_.kind == SystemKind::MoDM)
        monitor_ = std::make_unique<GlobalMonitor>(
            makeMonitorConfig(config_));

    // Static allocations for the baselines: Vanilla / Nirvana /
    // Pinecone run everything on the large model; StandaloneSmall runs
    // everything on the first small model.
    switch (config_.kind) {
      case SystemKind::MoDM:
        allocation_ = monitor_->current();
        break;
      case SystemKind::Vanilla:
      case SystemKind::Nirvana:
      case SystemKind::Pinecone:
        allocation_.numLarge = static_cast<int>(config_.numWorkers);
        break;
      case SystemKind::StandaloneSmall:
        allocation_.numLarge = 0;
        break;
    }
}

void
ServingNode::reserveWarm(std::size_t count)
{
    scheduler_->reserveCache(count);
}

void
ServingNode::warm(const workload::Prompt &prompt)
{
    const auto image = sampler_.generate(config_.largeModel, prompt, 0.0);
    // Only the text-keyed caches (Pinecone, Nirvana) read the text
    // embedding on admission; MoDM keys its cache by image embedding,
    // and the encode is pure, so the other kinds skip it.
    embedding::Embedding textEmb;
    if (config_.kind == SystemKind::Pinecone ||
        config_.kind == SystemKind::Nirvana)
        textEmb = scheduler_->textEncoder().encode(
            prompt.visualConcept, prompt.lexicalStyle, prompt.text);
    admitGenerated(image, textEmb, /*from_miss=*/true, prompt.topicId,
                   0.0);
}

void
ServingNode::admitGenerated(const diffusion::Image &image,
                            const embedding::Embedding &text_embedding,
                            bool from_miss, std::uint32_t topic_id,
                            double now)
{
    if (replicas_ == nullptr) {
        scheduler_->admitGenerated(image, text_embedding, from_miss, now);
        return;
    }
    // One key per generation: every shard's cache is built from the
    // same ServingConfig::imageEncoder, so this node's key is bit for
    // bit the one each owner would compute.
    embedding::Embedding imageKey;
    replicas_->admitReplicated(
        id_, image,
        scheduler_->admissionKey(image, text_embedding, from_miss,
                                 imageKey),
        topic_id, now);
}

void
ServingNode::admitLocal(std::size_t origin, const diffusion::Image &image,
                        const embedding::Embedding *key, double now)
{
    if (key != nullptr)
        scheduler_->admitKeyed(image, *key, now);
    if (origin != id_)
        ++replicaAdmits_;
}

void
ServingNode::onArrival(const workload::Request &request)
{
    MODM_ASSERT(alive_ && !draining_,
                "request routed to node %zu which is not admitting",
                id_);
    ++periodArrivals_;
    ++assigned_;
    intake_.push_back(&request);
    processIntake();
    tryDispatch();
}

void
ServingNode::scheduleMonitorTick()
{
    monitorTick_ = events_.schedule(
        kMonitorPeriodS,
        obs::eventMeta(obs::EventKind::MonitorTick, id_),
        [this]() { onMonitorTick(); });
    monitorTickPending_ = true;
}

void
ServingNode::trace(double clock, obs::EventKind kind,
                   std::uint64_t request) const
{
    if (tracer_ != nullptr)
        tracer_->emit(clock, kind, static_cast<std::uint32_t>(id_),
                      request);
}

bool
ServingNode::isLargeRole(std::size_t worker_index) const
{
    return static_cast<int>(worker_index) < allocation_.numLarge;
}

void
ServingNode::processIntake()
{
    while (!intake_.empty() &&
           largeQueue_.size() + smallQueue_.size() <
               kLookaheadPerWorker * config_.numWorkers) {
        const workload::Request &request = *intake_.front();
        intake_.pop_front();
        ClassifiedJob job = scheduler_->classify(request, events_.now());
        trace(events_.now(),
              job.hit ? obs::EventKind::CacheHit
                      : obs::EventKind::CacheMiss,
              request.prompt.id);

        if (job.hit) {
            ++periodHits_;
            if (job.k > 0) {
                const auto k = static_cast<std::size_t>(job.k);
                if (k >= periodKCounts_.size()) // a table reaching past T
                    periodKCounts_.resize(k + 1, 0);
                ++periodKCounts_[k];
            }
        } else {
            ++periodMisses_;
        }

        if (job.direct) {
            completeDirect(job);
            continue;
        }
        if (config_.kind == SystemKind::StandaloneSmall) {
            // Single-small-model serving: every job runs on the small
            // workers (there are no large ones).
            smallQueue_.push_back(std::move(job));
        } else if (!job.hit ||
                   config_.kind == SystemKind::Nirvana) {
            // Misses need the large model; Nirvana also refines its
            // latents with the large model itself.
            largeQueue_.push_back(std::move(job));
        } else {
            smallQueue_.push_back(std::move(job));
        }
    }
}

void
ServingNode::completeDirect(ClassifiedJob &job)
{
    const double start = events_.now();
    const double finish = start + kRetrievalLatencyS;
    trace(finish, obs::EventKind::DirectReturn, job.request->prompt.id);
    finishRequest(job, start, finish, ServeKind::DirectReturn, "-",
                  std::move(job.base));
    ++completed_;
    ++run_.completed;
}

void
ServingNode::tryDispatch()
{
    const double now = events_.now();
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t w = 0; w < cluster_.size(); ++w) {
            sim::Worker &worker = cluster_.worker(w);
            if (worker.busyAt(now))
                continue;

            const bool large = isLargeRole(w);
            ClassifiedJob job;
            bool haveJob = false;
            bool useLarge = large;

            if (large) {
                if (!largeQueue_.empty()) {
                    job = std::move(largeQueue_.front());
                    largeQueue_.pop_front();
                    haveJob = true;
                } else if (!smallQueue_.empty() &&
                           (config_.mode ==
                                MonitorMode::QualityOptimized ||
                            allocation_.numLarge ==
                                static_cast<int>(cluster_.size()))) {
                    // Quality-optimized mode serves cache hits with the
                    // large model when capacity allows (paper Q.9); the
                    // all-large corner also drains hits to avoid
                    // stranding them.
                    job = std::move(smallQueue_.front());
                    smallQueue_.pop_front();
                    haveJob = true;
                }
            } else if (!smallQueue_.empty()) {
                job = std::move(smallQueue_.front());
                smallQueue_.pop_front();
                haveJob = true;
            }
            if (!haveJob)
                continue;

            // Bind the model at dispatch time: the monitor may change
            // the small-model choice while this job is in flight.
            const std::size_t smallIdx = allocation_.smallModelIndex;
            const diffusion::ModelSpec &model = useLarge
                ? config_.largeModel
                : config_.smallModels[smallIdx];
            // k counts skipped steps of the large model's T-step
            // schedule; a refining model with a different step count
            // (e.g. the 10-step Turbo distillate) runs the same
            // *fraction* of its own schedule.
            int steps = model.defaultSteps;
            if (job.hit) {
                const double remaining = 1.0 -
                    static_cast<double>(job.k) /
                        static_cast<double>(
                            config_.largeModel.defaultSteps);
                steps = std::max(
                    1, static_cast<int>(std::lround(
                           model.defaultSteps * remaining)));
            }
            const double finish = worker.startJob(model, steps, now);
            // Register in the in-flight ledger before scheduling so a
            // kill between now and `finish` can cancel the completion
            // and surrender the request.
            const std::uint64_t jobId = nextJobId_++;
            InFlightJob &entry = inFlight_[jobId];
            entry.worker = w;
            entry.job = std::move(job);
            entry.dispatchTime = now;
            entry.useLarge = useLarge;
            entry.smallIndex = smallIdx;
            trace(now, obs::EventKind::Dispatch,
                  entry.job.request->prompt.id);
            entry.event = events_.schedule(
                finish,
                obs::eventMeta(obs::EventKind::Completion, id_,
                               entry.job.request->prompt.id),
                [this, jobId]() { onJobComplete(jobId); });
            progress = true;
            processIntake(); // a freed lookahead slot admits a new job
        }
    }
}

void
ServingNode::onJobComplete(std::uint64_t job_id)
{
    const auto it = inFlight_.find(job_id);
    MODM_ASSERT(it != inFlight_.end(),
                "completion for unknown job %llu",
                static_cast<unsigned long long>(job_id));
    const InFlightJob entry = std::move(it->second);
    inFlight_.erase(it);
    const ClassifiedJob &job = entry.job;
    const workload::Prompt &prompt = job.request->prompt;

    const double now = events_.now();
    const diffusion::ModelSpec &model = entry.useLarge
        ? config_.largeModel
        : config_.smallModels[entry.smallIndex];

    diffusion::Image image;
    ServeKind kind;
    if (job.hit) {
        image = sampler_.refine(model, prompt, job.base, job.k, now);
        kind = ServeKind::Refinement;
    } else {
        image = sampler_.generate(model, prompt, now);
        kind = ServeKind::FullGeneration;
    }

    admitGenerated(image, job.textEmbedding, !job.hit, prompt.topicId, now);
    trace(now, obs::EventKind::Serve, prompt.id);
    finishRequest(job, entry.dispatchTime, now, kind, model.name,
                  std::move(image));
    ++completed_;
    ++run_.completed;
    processIntake();
    tryDispatch();
}

std::vector<const workload::Request *>
ServingNode::kill(double now)
{
    MODM_ASSERT(alive_, "kill of node %zu which is already down", id_);
    alive_ = false;
    if (draining_) {
        // A kill supersedes an in-progress drain.
        draining_ = false;
        drainedS_ += now - drainSince_;
        drainSince_ = -1.0;
    }
    downSince_ = now;

    if (monitorTickPending_) {
        events_.cancel(monitorTick_);
        monitorTickPending_ = false;
    }

    // Surrender everything this node still owed: unclassified intake,
    // classified queues, and in-flight generations (whose completions
    // are cancelled and whose workers roll back to the kill time).
    std::vector<const workload::Request *> owed;
    owed.reserve(intake_.size() + largeQueue_.size() +
                 smallQueue_.size() + inFlight_.size());
    for (const workload::Request *request : intake_)
        owed.push_back(request);
    for (std::size_t i = 0; i < largeQueue_.size(); ++i)
        owed.push_back(largeQueue_[i].request);
    for (std::size_t i = 0; i < smallQueue_.size(); ++i)
        owed.push_back(smallQueue_[i].request);
    for (const auto &[jobId, entry] : inFlight_) {
        events_.cancel(entry.event);
        cluster_.worker(entry.worker).abortJob(now);
        owed.push_back(entry.job.request);
        ++abortedJobs_;
    }
    intake_.clear();
    largeQueue_.clear();
    smallQueue_.clear();
    inFlight_.clear();

    // Deliver the backlog to its new owners in arrival order, not in
    // queue-discovery order (stable: equal arrivals keep the order
    // collected above, which is deterministic).
    std::stable_sort(owed.begin(), owed.end(),
                     [](const workload::Request *a,
                        const workload::Request *b) {
                         return a->arrival < b->arrival;
                     });
    reroutedOut_ += owed.size();

    // The shard dies with the node: a rejoin starts cold.
    scheduler_->clearCaches();

    // Stale period counters must not feed the monitor after a rejoin.
    periodArrivals_ = 0;
    periodHits_ = 0;
    periodMisses_ = 0;
    std::fill(periodKCounts_.begin(), periodKCounts_.end(), 0);
    haveInputs_ = false;

    return owed;
}

void
ServingNode::drain(double now)
{
    MODM_ASSERT(alive_, "drain of node %zu which is down", id_);
    MODM_ASSERT(!draining_, "node %zu is already draining", id_);
    draining_ = true;
    drainSince_ = now;
}

void
ServingNode::rejoin(double now)
{
    if (draining_) {
        draining_ = false;
        drainedS_ += now - drainSince_;
        drainSince_ = -1.0;
        return;
    }
    MODM_ASSERT(!alive_, "rejoin of node %zu which is already up", id_);
    alive_ = true;
    downtimeS_ += now - downSince_;
    downIntervals_.push_back({downSince_, now});
    downSince_ = -1.0;
    // Restart the control loop against fresh measurements only.
    if (monitor_)
        monitor_->reset();
    if (run_.completed < run_.total) {
        monitorTick_ = events_.scheduleAfter(
            kMonitorPeriodS,
            obs::eventMeta(obs::EventKind::MonitorTick, id_),
            [this]() { onMonitorTick(); });
        monitorTickPending_ = true;
    }
}

void
ServingNode::setMonitorMode(MonitorMode mode)
{
    config_.mode = mode;
    if (monitor_)
        monitor_->setMode(mode);
}

void
ServingNode::setCacheShardCapacity(std::size_t capacity)
{
    config_.cacheCapacity = capacity;
    config_.latentCacheCapacity = capacity;
    scheduler_->setCacheCapacity(capacity);
}

double
ServingNode::downtimeS(double until) const
{
    double down = downtimeS_;
    if (downSince_ >= 0.0)
        down += std::max(until - downSince_, 0.0);
    return down;
}

double
ServingNode::drainedS(double until) const
{
    double drained = drainedS_;
    if (drainSince_ >= 0.0)
        drained += std::max(until - drainSince_, 0.0);
    return drained;
}

std::vector<std::pair<double, double>>
ServingNode::downIntervals(double until) const
{
    auto intervals = downIntervals_;
    if (downSince_ >= 0.0)
        intervals.push_back({downSince_, std::max(until, downSince_)});
    return intervals;
}

void
ServingNode::finishRequest(const ClassifiedJob &job, double start,
                           double finish, ServeKind kind,
                           const std::string &served_by,
                           diffusion::Image &&image)
{
    RequestRecord record;
    record.promptId = job.request->prompt.id;
    record.arrival = job.request->arrival;
    record.classified = job.classifiedAt;
    record.start = start;
    record.finish = finish;
    record.cacheHit = job.hit;
    record.k = job.k;
    record.similarity = job.similarity;
    record.kind = kind;
    record.servedBy = served_by;
    result_.metrics.record(record);

    if (config_.keepOutputs) {
        result_.prompts.push_back(std::cref(job.request->prompt));
        result_.images.push_back(std::move(image));
    }
}

void
ServingNode::onMonitorTick()
{
    monitorTickPending_ = false;
    if (config_.kind == SystemKind::MoDM) {
        const std::uint64_t classified = periodHits_ + periodMisses_;
        if (classified > 0) {
            MonitorInputs &inputs = lastInputs_;
            // Demand estimate: arrivals per minute, except under a
            // saturating burst (all arrivals land in one period, e.g.
            // the paper's timestamp-free throughput experiments) where
            // the classification rate is the better load signal.
            inputs.requestRate = std::max(
                static_cast<double>(periodArrivals_),
                static_cast<double>(classified)) *
                60.0 / kMonitorPeriodS;
            inputs.hitRate = static_cast<double>(periodHits_) /
                static_cast<double>(classified);
            inputs.kRates.clear();
            for (std::size_t k = 1; k < periodKCounts_.size(); ++k) {
                if (periodKCounts_[k] == 0)
                    continue;
                inputs.kRates.push_back(
                    {static_cast<int>(k),
                     static_cast<double>(periodKCounts_[k]) /
                         static_cast<double>(std::max<std::uint64_t>(
                             periodHits_, 1))});
            }
            haveInputs_ = true;
        }
        if (haveInputs_) {
            allocation_ = monitor_->update(lastInputs_);
            allocations_.push_back({events_.now(), allocation_.numLarge,
                                    allocation_.smallModelIndex, id_});
        }
    }
    periodArrivals_ = 0;
    periodHits_ = 0;
    periodMisses_ = 0;
    std::fill(periodKCounts_.begin(), periodKCounts_.end(), 0);

    if (run_.completed < run_.total) {
        monitorTick_ = events_.scheduleAfter(
            kMonitorPeriodS,
            obs::eventMeta(obs::EventKind::MonitorTick, id_),
            [this]() { onMonitorTick(); });
        monitorTickPending_ = true;
        tryDispatch();
    }
}

NodeStats
ServingNode::stats(double duration) const
{
    NodeStats stats;
    stats.node = id_;
    stats.numWorkers = cluster_.size();
    stats.assigned = assigned_;
    stats.completed = completed_;
    const auto &sched = scheduler_->stats();
    stats.hits = sched.hits;
    stats.misses = sched.misses;
    stats.hitRate = sched.classified == 0
        ? 0.0
        : static_cast<double>(sched.hits) /
            static_cast<double>(sched.classified);
    if (const auto *cache = scheduler_->imageCache()) {
        stats.cacheSize = cache->size();
        stats.cacheBytes = scheduler_->cacheBytes();
        stats.retrievalMemoryBytes = cache->index().memoryBytes();
    }
    // A dead node draws no idle power; with no faults the downtime is
    // zero and this reproduces the original accounting bit-for-bit.
    stats.energyJ = cluster_.totalEnergyJ(duration) -
        downtimeS(duration) * sim::Worker::kIdlePowerW *
            static_cast<double>(cluster_.size());
    stats.modelSwitches = cluster_.totalModelSwitches();
    return stats;
}

} // namespace modm::serving
