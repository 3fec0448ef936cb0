#include "bt/translator.hh"

#include "bt/translation_cache.hh"
#include "common/logging.hh"

namespace powerchop
{

Translator::Translator(const Program &program,
                       const TranslatorParams &params)
    : program_(program), params_(params)
{
    if (params.maxTraceBlocks == 0)
        fatal("translator maxTraceBlocks must be non-zero");
}

void
Translator::setPrebuilt(const TranslationMetadataSet *set)
{
    if (set && set->maxTraceBlocks != params_.maxTraceBlocks)
        fatal("translation metadata built for maxTraceBlocks=%u, "
              "translator configured with %u",
              set->maxTraceBlocks, params_.maxTraceBlocks);
    if (set && set->byBlock.size() != program_.numBlocks())
        fatal("translation metadata covers %zu blocks, program has %zu",
              set->byBlock.size(), program_.numBlocks());
    prebuilt_ = set;
}

std::unique_ptr<Translation>
Translator::translate(BlockId head)
{
    if (prebuilt_) {
        const TranslationProto &p = prebuilt_->byBlock[head];
        auto t = std::make_unique<Translation>();
        t->headPc = p.headPc;
        t->id = Translation::idFor(p.headPc);
        t->blocks = p.blocks;
        t->staticInsts = p.staticInsts;
        t->hasSimd = p.hasSimd;
        return t;
    }

    auto t = std::make_unique<Translation>();
    const BasicBlock &hb = program_.block(head);
    t->headPc = hb.head;
    t->id = Translation::idFor(hb.head);

    BlockId cur = head;
    for (unsigned n = 0; n < params_.maxTraceBlocks; ++n) {
        const BasicBlock &bb = program_.block(cur);
        t->blocks.push_back(cur);
        t->staticInsts += static_cast<unsigned>(bb.insts.size());
        if (bb.simdCount > 0)
            t->hasSimd = true;

        // Follow the statically most likely successor; stop when the
        // trace would loop back on itself.
        BlockId next = bb.takenSucc;
        if (next == invalidBlockId || next == head)
            break;
        cur = next;
    }

    return t;
}

} // namespace powerchop
