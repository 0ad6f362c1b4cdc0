// Package sketch holds what FlyMon's measurements are scored and merged
// with, beside the CMU compositions in flymon/internal/core/algorithms:
//
//   - exact ground-truth accumulators (Exact*) that score every accuracy
//     experiment and test;
//   - the control-plane estimators the compositions run on register words
//     read back (HLLEstimateFromRanks, LinearCountingFromZeros,
//     OddSketchDifferenceFromOnes, BeauCoup's CouponConfig and
//     SolveCouponConfig) and the element-wise merge kernels the fleet
//     folds readouts with (Merge*Registers);
//   - the native comparators the paper's figures plot FlyMon against: CMS
//     (Fig. 12 and the ablation), UnivMon with its Count-sketch levels and
//     the original BeauCoup (Fig. 14).
//
// The accuracy of the compositions themselves is checked against their
// theoretical bounds by the conformance suite in
// flymon/internal/core/algorithms.
package sketch
