/**
 * @file
 * The extension tables built on the paper's evaluation, as specs for
 * the table plan (tables.hh): the §2 related-work schemes quantified,
 * §6's software-managed decompression, and the prefetch, miss-latency,
 * design-accounting, replacement and seed studies. cpstables knows each
 * one by the name in its comment.
 */

#ifndef CPS_HARNESS_EXT_TABLES_HH
#define CPS_HARNESS_EXT_TABLES_HH

#include "tables.hh"

namespace cps
{
namespace harness
{

/** ablation_compressors: CodePack against CCRP and dict32. */
TablePrinter ablationCompressors(Matrix &m);

/** ext_software_decompress: trap-based software decompression. */
TablePrinter extSoftwareDecompress(Matrix &m);

/** ext_prefetch: native next-line prefetch against CodePack. */
TablePrinter extPrefetch(Matrix &m);

/** ext_miss_latency: Figure 2's miss latency averaged over a run. */
TablePrinter extMissLatency(Matrix &m);

/** ext_design_accounting: what each CodePack design choice buys. */
TablePrinter extDesignAccounting(Matrix &m);

/** ext_replacement: I-cache replacement policy robustness. */
TablePrinter extReplacement(Matrix &m);

/** ext_seed_robustness: the headline comparisons across reseeded
 *  'go' programs. */
TablePrinter extSeedRobustness(Matrix &m);

} // namespace harness
} // namespace cps

#endif // CPS_HARNESS_EXT_TABLES_HH
