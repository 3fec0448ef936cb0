/**
 * @file
 * The translator/optimizer: produces host-ISA translations from hot
 * guest code regions.
 *
 * Traces start at a hot block head and follow the statically most
 * likely successor chain up to a configurable length. Translations
 * covering SIMD instructions are emitted with a scalar-emulation
 * alternate path so the VPU can be gated off without retranslation
 * (Section IV-C2, "ops emulated by BT").
 */

#ifndef POWERCHOP_BT_TRANSLATOR_HH
#define POWERCHOP_BT_TRANSLATOR_HH

#include <memory>

#include "bt/translation.hh"
#include "isa/program.hh"

namespace powerchop
{

struct TranslationMetadataSet;

/** Translator configuration. */
struct TranslatorParams
{
    /** Maximum guest blocks per trace. Keeping traces short keeps
     *  translation-head granularity fine, which is what the HTB's
     *  phase signatures are built from. */
    unsigned maxTraceBlocks = 1;
};

/**
 * Builds translations from a guest program.
 */
class Translator
{
  public:
    /**
     * @param program The guest program (must outlive the translator).
     * @param params  Trace-formation parameters.
     */
    Translator(const Program &program, const TranslatorParams &params = {});

    /**
     * Produce a translation for the region headed at a block.
     *
     * @param head Block at the trace head.
     * @return the new translation (caller inserts into region cache).
     */
    std::unique_ptr<Translation> translate(BlockId head);

    /**
     * Use pre-derived translation metadata (bt/translation_cache.hh):
     * translate() copies the head's prototype instead of re-walking
     * the CFG. The set must match this translator's program and trace
     * parameters and outlive the translator. nullptr reverts to
     * walking.
     */
    void setPrebuilt(const TranslationMetadataSet *set);

  private:
    const Program &program_;
    TranslatorParams params_;
    const TranslationMetadataSet *prebuilt_ = nullptr;
};

} // namespace powerchop

#endif // POWERCHOP_BT_TRANSLATOR_HH
