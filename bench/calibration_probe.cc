/**
 * @file
 * Calibration probe: prints the raw distributions the substrate models
 * are calibrated against — similarity scales of the synthetic CLIP
 * space, per-model quality metrics, and the refinement quality response.
 * Not a paper figure; kept as a diagnostic so recalibration after any
 * substrate change is a one-command check.
 *
 * Each probe section is independent, so the four run as concurrent
 * sweep cells; sections render their tables to strings and main prints
 * them in declaration order.
 */

#include <cstdio>
#include <map>

#include "bench/sweep.hh"
#include "src/common/stats.hh"

using namespace modm;

namespace {

std::string
similarityScales()
{
    workload::DiffusionDBModel gen({}, 7);
    embedding::TextEncoder text;
    embedding::ImageEncoder image;
    diffusion::Sampler sampler(99);

    // Generate a few thousand prompts; for prompts in the same session,
    // measure text-to-image similarity vs the session's first image.
    RunningStat sessionSim, sameTopicSim, crossSim, t2tSession, t2tCross;
    std::map<std::uint64_t, std::pair<workload::Prompt,
                                      embedding::Embedding>> firstOfSession;
    std::vector<std::pair<workload::Prompt, embedding::Embedding>> all;

    for (int i = 0; i < 4000; ++i) {
        const auto p = gen.next();
        const auto img =
            sampler.generate(diffusion::sd35Large(), p, 0.0);
        const auto ie = image.encode(img.content, img.fidelity, img.id);
        const auto te = text.encode(p.visualConcept, p.lexicalStyle,
                                    p.text);
        const auto it = firstOfSession.find(p.sessionId);
        if (it == firstOfSession.end()) {
            firstOfSession.emplace(p.sessionId, std::make_pair(p, ie));
        } else {
            sessionSim.add(te.similarity(it->second.second));
            const auto tePrev = text.encode(
                it->second.first.visualConcept,
                it->second.first.lexicalStyle, it->second.first.text);
            t2tSession.add(te.similarity(tePrev));
        }
        for (int probe = 0; probe < 2 && !all.empty(); ++probe) {
            const auto &other =
                all[static_cast<std::size_t>(i * 31 + probe * 17) %
                    all.size()];
            if (other.first.sessionId == p.sessionId)
                continue;
            if (other.first.topicId == p.topicId)
                sameTopicSim.add(te.similarity(other.second));
            else
                crossSim.add(te.similarity(other.second));
            const auto teOther = text.encode(other.first.visualConcept,
                                             other.first.lexicalStyle,
                                             other.first.text);
            t2tCross.add(te.similarity(teOther));
        }
        all.emplace_back(p, ie);
    }

    Table t({"pair type", "mean", "std", "min", "max", "n"});
    auto row = [&](const char *name, const RunningStat &s) {
        t.addRow({name, Table::fmt(s.mean(), 3), Table::fmt(s.stddev(), 3),
                  Table::fmt(s.min(), 3), Table::fmt(s.max(), 3),
                  Table::fmt(s.count())});
    };
    row("text->image, same session", sessionSim);
    row("text->image, same topic", sameTopicSim);
    row("text->image, cross topic", crossSim);
    row("text->text, same session", t2tSession);
    row("text->text, other", t2tCross);
    return t.render("Similarity scales (paper: hits at 0.25-0.30, "
                    "Nirvana t2t 0.65-0.95)");
}

std::string
modelQuality()
{
    workload::DiffusionDBModel gen({}, 11);
    diffusion::Sampler sampler(3);
    diffusion::Sampler refSampler(4);
    eval::MetricSuite metrics;

    std::vector<workload::Prompt> prompts;
    std::vector<diffusion::Image> reference;
    for (int i = 0; i < 1500; ++i) {
        prompts.push_back(gen.next());
        reference.push_back(refSampler.generate(diffusion::sd35Large(),
                                                prompts.back(), 0.0));
    }

    const workload::PromptRefs promptRefs(prompts.begin(), prompts.end());
    Table t({"model", "CLIP", "FID", "IS", "Pick"});
    for (const auto &model : diffusion::allModels()) {
        std::vector<diffusion::Image> images;
        for (const auto &p : prompts)
            images.push_back(sampler.generate(model, p, 0.0));
        const auto q = metrics.report(promptRefs, images, reference);
        t.addRow({model.name, Table::fmt(q.clip), Table::fmt(q.fid, 1),
                  Table::fmt(q.is, 1), Table::fmt(q.pick)});
    }
    return t.render("Standalone model quality (paper Table 2 left "
                    "block)");
}

std::string
refinementResponse()
{
    // Quality factor vs (k, similarity): refine SDXL over a cached
    // large-model image of a *related* prompt, sweeping concept drift.
    workload::DiffusionDBModel gen({}, 13);
    diffusion::Sampler sampler(5);
    eval::MetricSuite metrics;
    embedding::TextEncoder text;
    embedding::ImageEncoder image;
    Rng rng(17);

    Table t({"k", "sim bucket", "mean Q", "n"});
    std::map<int, std::map<int, RunningStat>> cells;
    for (int i = 0; i < 4000; ++i) {
        auto base = gen.next();
        const auto baseImg =
            sampler.generate(diffusion::sd35Large(), base, 0.0);
        // A related prompt: drift the concept by a random amount.
        workload::Prompt query = base;
        query.id = base.id + 1000000;
        query.visualConcept = jitterUnitVec(
            base.visualConcept, rng.uniform(0.0, 0.8), rng);
        const auto te = text.encode(query.visualConcept,
                                    query.lexicalStyle, query.text);
        const auto ie =
            image.encode(baseImg.content, baseImg.fidelity, baseImg.id);
        const double sim = te.similarity(ie);

        const auto fullGen =
            sampler.generate(diffusion::sd35Large(), query, 0.0);
        const double fullClip = metrics.clipScore(query, fullGen);
        for (int k : {5, 10, 15, 20, 25, 30}) {
            const auto refined = sampler.refine(diffusion::sdxl(), query,
                                                baseImg, k, 0.0);
            const double q = metrics.clipScore(query, refined) / fullClip;
            const int bucket = static_cast<int>(sim * 100.0);
            cells[k][bucket].add(q);
        }
    }
    for (const auto &[k, buckets] : cells) {
        for (const auto &[bucket, stat] : buckets) {
            if (stat.count() < 30 || bucket < 22 || bucket > 32)
                continue;
            t.addRow({Table::fmt(static_cast<std::uint64_t>(k)),
                      Table::fmt(bucket / 100.0, 2),
                      Table::fmt(stat.mean(), 3),
                      Table::fmt(stat.count())});
        }
    }
    return t.render("Refinement quality factor vs (k, text-image "
                    "similarity) (paper Fig. 5a; alpha = 0.95 "
                    "thresholds)");
}

std::string
servingDecomposition()
{
    // Decompose MoDM's end-to-end quality: where do FID/CLIP move vs
    // the Vanilla reference — fidelity loss, alignment loss, or
    // content-diversity shrinkage from cache reuse?
    auto gen = workload::makeDiffusionDB(21);
    std::vector<workload::Prompt> warm;
    for (int i = 0; i < 1500; ++i)
        warm.push_back(gen->next());
    const auto trace = workload::buildBatchTrace(*gen, 1500);

    baselines::PresetParams params;
    params.numWorkers = 4;
    params.cacheCapacity = 1500;
    params.keepOutputs = true;
    serving::ServingSystem system(
        baselines::modm(diffusion::sd35Large(), diffusion::sdxl(),
                        params));
    system.warmCache(warm);
    const auto result = system.run(trace);

    eval::MetricSuite metrics;
    diffusion::Sampler ref(77);
    std::vector<diffusion::Image> reference;
    for (const auto &p : result.prompts)
        reference.push_back(ref.generate(diffusion::sd35Large(), p, 0.0));

    RunningStat fidRefined, fidMiss, alignRefined, alignMiss;
    std::vector<diffusion::Image> refined, missed, refRefined, refMissed;
    workload::PromptRefs promptsRefined, promptsMissed;
    for (std::size_t i = 0; i < result.images.size(); ++i) {
        const auto &img = result.images[i];
        const double align =
            cosine(result.prompts[i].get().visualConcept, img.content);
        if (img.refined) {
            fidRefined.add(img.fidelity);
            alignRefined.add(align);
            refined.push_back(img);
            refRefined.push_back(reference[i]);
            promptsRefined.push_back(result.prompts[i]);
        } else {
            fidMiss.add(img.fidelity);
            alignMiss.add(align);
            missed.push_back(img);
            refMissed.push_back(reference[i]);
            promptsMissed.push_back(result.prompts[i]);
        }
    }
    Table t({"population", "n", "mean fid", "mean align",
             "FID vs ref", "CLIP"});
    auto addRow = [&](const char *name, const RunningStat &fid,
                      const RunningStat &align,
                      const workload::PromptRefs &prompts,
                      const std::vector<diffusion::Image> &imgs,
                      const std::vector<diffusion::Image> &refs) {
        double clip = 0.0;
        for (std::size_t i = 0; i < imgs.size(); ++i)
            clip += metrics.clipScore(prompts[i], imgs[i]);
        t.addRow({name, Table::fmt(fid.count()),
                  Table::fmt(fid.mean(), 3), Table::fmt(align.mean(), 3),
                  imgs.size() > 10
                      ? Table::fmt(metrics.fid(imgs, refs), 1)
                      : "-",
                  imgs.empty()
                      ? "-"
                      : Table::fmt(clip / imgs.size())});
    };
    addRow("refined (hits)", fidRefined, alignRefined, promptsRefined,
           refined, refRefined);
    addRow("full-gen (misses)", fidMiss, alignMiss, promptsMissed,
           missed, refMissed);
    return t.render("MoDM serving decomposition (batch, cache-all)");
}

} // namespace

int
main()
{
    bench::SweepOptions options;
    options.title = "Calibration probe";
    const auto sections = bench::runCells<std::string>(
        {similarityScales, modelQuality, refinementResponse,
         servingDecomposition},
        options,
        {"similarity scales", "model quality", "refinement response",
         "serving decomposition"});
    for (const auto &section : sections)
        std::fputs(section.c_str(), stdout);
    return 0;
}
