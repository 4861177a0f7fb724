// Package core implements the paper's primary contribution: analytic cost
// models and mapping-search algorithms for convolutional weight mapping on
// processing-in-memory (PIM) crossbar arrays.
//
// The package models four mapping schemes:
//
//   - im2col: each K×K×IC kernel unrolled into one column (Fig. 2a).
//   - SMD: sub-matrix duplication, block-diagonal kernel copies (Fig. 2b).
//   - SDK: shifted and duplicated kernels sharing a square parallel window
//     with entire channels (Fig. 2c).
//   - VW-SDK: the paper's variable-window SDK with rectangular parallel
//     windows and tiled channels (Fig. 2d).
//
// Cost is expressed in computing cycles (paper eqs. 1–8):
//
//	cycles = N_PW × AR × AC
//
// where N_PW is the number of parallel-window positions over the input
// feature map, AR ("array row cycles") is the number of row-dimension tiles
// and AC ("array column cycles") the number of column-dimension tiles needed
// because the array is smaller than the layer.
//
// SearchVWSDK implements Algorithm 1 of the paper; SearchSDK and SearchSMD
// implement the baselines the paper compares against. Every per-layer search
// is one call, Search(ctx, layer, array, method): a Method names the scheme
// and, for VW-SDK, the ablation Variant, and Search is the one place a
// method selects its algorithm, with SearchExhaustive as its brute-force
// oracle. The Searcher interface has that one method; Serial, Exhaustive
// and internal/engine implement it. Utilization follows eq. 9 and counts
// weight-holding cells per cycle.
package core
