//! Cross-crate property tests: invariants that must hold across the
//! algorithm/hardware boundary for arbitrary inputs.

use instant_nerf::accel::{HashTableMapping, MappingScheme, RequestSink, RequestStream};
use instant_nerf::dram::{DramConfig, DramSim, Request};
use instant_nerf::encoding::{CountingSink, HashFunction, HashGrid, HashGridConfig, TraceSink};
use instant_nerf::geom::{GridCoord, GridLevel, Vec3};
use instant_nerf::mlp::fp16::quantize_f16;
use instant_nerf::render::volume::{composite, composite_backward, SamplePoint};
use instant_nerf::trainer::workload::{step_sizes_at, Step};
use instant_nerf::trainer::{ModelConfig, Precision};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every hash-table coordinate maps to a legal physical address, for
    /// every mapping scheme and subarray count.
    #[test]
    fn mapping_addresses_always_legal(
        level in 0u32..16,
        entry in 0u32..(1 << 19),
        sa_log2 in 0u32..7,
        scheme_idx in 0usize..3
    ) {
        let sa = 1u32 << sa_log2;
        let scheme = [
            MappingScheme::Clustered,
            MappingScheme::OneLevelPerBank,
            MappingScheme::ClusteredNoSpread,
        ][scheme_idx];
        let mapping = HashTableMapping::paper(scheme, sa);
        let dram = DramConfig::paper(sa);
        let addr = mapping.map_entry(level, entry, &dram);
        prop_assert!(addr.bank < DramConfig::BANKS);
        prop_assert!(addr.subarray < dram.subarrays_per_bank);
        prop_assert!(addr.row < dram.rows_per_subarray());
    }

    /// The request stream never exceeds the un-filtered bound of eight rows
    /// per cube (reads) plus one drain write per touched row.
    #[test]
    fn request_stream_bounded(seed in 0u64..100, points in 1usize..64) {
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), seed);
        let mapping = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let requests = |write_back| {
            RequestSink::new(RequestStream::new(&mapping, &dram, write_back), Vec::new())
        };
        let mut sinks = (CountingSink::default(), (requests(false), requests(true)));
        let mut s = seed.wrapping_mul(0x9E37_79B9_97F4_A7C5) | 1;
        for _ in 0..points {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            let p = Vec3::new(
                (s & 0xffff) as f32 / 65535.0,
                ((s >> 16) & 0xffff) as f32 / 65535.0,
                ((s >> 32) & 0xffff) as f32 / 65535.0,
            );
            grid.stream_point(p, &mut sinks);
        }
        sinks.end_batch();
        let (counts, (reads, rw)) = sinks;
        let (reads, rw) = (reads.consumer(), rw.consumer());
        let bound = counts.cubes as usize * 8;
        prop_assert!(reads.len() <= bound);
        prop_assert!(rw.len() <= 2 * bound);
        prop_assert!(rw.len() >= reads.len());
    }

    /// A prefix of a request stream never takes longer than the whole
    /// stream (simulator monotonicity).
    #[test]
    fn dram_makespan_monotone_in_prefix(seed in 0u64..50) {
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), seed);
        let mapping = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let mut sink = RequestSink::new(RequestStream::new(&mapping, &dram, false), Vec::new());
        for i in 0..48u32 {
            let x = (i as f32 + 0.5) / 48.0;
            grid.stream_point(Vec3::new(x, 0.4, 0.6), &mut sink);
        }
        sink.end_batch();
        let reqs: &[Request] = sink.consumer();
        prop_assume!(reqs.len() >= 4);
        let half = DramSim::new(dram).run(&reqs[..reqs.len() / 2]).total_cycles;
        let full = DramSim::new(dram).run(reqs).total_cycles;
        prop_assert!(full >= half, "prefix {half} vs full {full}");
    }

    /// Rendering backward is finite for any bounded inputs, including
    /// degenerate densities.
    #[test]
    fn composite_backward_always_finite(
        sigmas in proptest::collection::vec(-5.0f32..100.0, 1..16),
        gx in -10.0f32..10.0
    ) {
        let samples: Vec<SamplePoint> = sigmas
            .iter()
            .map(|&s| SamplePoint { sigma: s, color: Vec3::new(0.3, 0.6, 0.9) })
            .collect();
        let dts = vec![0.05f32; samples.len()];
        let out = composite(&samples, &dts);
        let grads = composite_backward(&samples, &dts, &out, Vec3::new(gx, -gx, 0.5));
        for g in &grads.d_sigma {
            prop_assert!(g.is_finite());
        }
        for g in &grads.d_color {
            prop_assert!(g.is_finite());
        }
    }

    /// The FP16 storage path the accelerator uses never increases the
    /// magnitude of an embedding (no energy injection through quantization).
    #[test]
    fn fp16_storage_never_amplifies(x in -1.0f32..1.0) {
        let q = quantize_f16(x);
        prop_assert!(q.abs() <= x.abs() * (1.0 + 1.0 / 1024.0) + 1e-7);
    }

    /// Tab. II operand sizes scale linearly with the batch size (the
    /// assumption behind trace-sample scaling in the pipeline model).
    #[test]
    fn workload_sizes_linear_in_batch(points in 1u64..1_000_000) {
        let model = ModelConfig::paper(HashFunction::Morton);
        for step in Step::ALL {
            let one = step_sizes_at(&model, step, points, Precision::Fp16);
            let two = step_sizes_at(&model, step, 2 * points, Precision::Fp16);
            prop_assert_eq!(two.input_bytes, 2 * one.input_bytes);
            prop_assert_eq!(two.output_bytes, 2 * one.output_bytes);
            // Parameters are batch-independent.
            prop_assert_eq!(two.param_bytes, one.param_bytes);
        }
    }
}

/// Every level resolution the repo's grid configurations produce, plus the
/// small, odd and large ones where truncation and `floor` could part ways.
fn cube_of_resolutions() -> Vec<u32> {
    let grids = [
        HashGridConfig::paper(HashFunction::Morton),
        HashGridConfig::tiny(HashFunction::Morton),
        ModelConfig::small(HashFunction::Morton).grid,
    ];
    grids
        .iter()
        .flat_map(|g| g.build_levels())
        .map(|l| l.resolution)
        .chain([1, 2047, 2048, 4096])
        .collect()
}

/// `GridLevel::cube_of` with an explicit `floor` before the cast.
fn cube_of_floor_reference(level: &GridLevel, p: Vec3) -> (GridCoord, Vec3) {
    let r = level.resolution as f32;
    let clamp = |v: f32| (v.clamp(0.0, 1.0) * r).min(r - 1e-4);
    let (sx, sy, sz) = (clamp(p.x), clamp(p.y), clamp(p.z));
    let base = GridCoord::new(sx.floor() as u32, sy.floor() as u32, sz.floor() as u32);
    let frac = Vec3::new(sx - base.x as f32, sy - base.y as f32, sz - base.z as f32);
    (base, frac)
}

fn assert_cube_of_matches_reference(level: &GridLevel, p: Vec3) {
    let (base, frac) = level.cube_of(p);
    let (want_base, want_frac) = cube_of_floor_reference(level, p);
    let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    assert_eq!(base, want_base, "res {} p {p:?}", level.resolution);
    assert_eq!(
        bits(frac),
        bits(want_frac),
        "res {} p {p:?}",
        level.resolution
    );
}

/// The libm-free `cube_of` returns the base vertex and the bits of the
/// fractional position that the `floor` version did, at the coordinates
/// where they could differ: NaN, both zeros, the far face and its
/// neighbours, and out-of-range values on either side.
#[test]
fn cube_of_matches_floor_reference_at_special_coordinates() {
    let below_one = f32::from_bits(1.0f32.to_bits() - 1);
    let specials = [
        f32::NAN,
        0.0,
        -0.0,
        1.0,
        below_one,
        f32::MIN_POSITIVE,
        -0.5,
        1.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.5,
    ];
    for res in cube_of_resolutions() {
        let level = GridLevel::new(0, res);
        for x in specials {
            for y in specials {
                for z in specials {
                    assert_cube_of_matches_reference(&level, Vec3::new(x, y, z));
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn cube_of_matches_floor_reference(
        px in -0.5f32..1.5, py in -0.5f32..1.5, pz in -0.5f32..1.5
    ) {
        for res in cube_of_resolutions() {
            assert_cube_of_matches_reference(&GridLevel::new(0, res), Vec3::new(px, py, pz));
        }
    }
}

/// Failure injection: a model poisoned with a non-finite embedding must not
/// crash the renderer (the composite clamps negative densities and the rest
/// flows through IEEE semantics).
#[test]
fn renderer_survives_degenerate_samples() {
    let samples = [
        SamplePoint {
            sigma: f32::INFINITY,
            color: Vec3::new(0.5, 0.5, 0.5),
        },
        SamplePoint {
            sigma: 1.0,
            color: Vec3::new(1.0, 0.0, 0.0),
        },
    ];
    let out = composite(&samples, &[0.1, 0.1]);
    // Infinite density saturates alpha to 1 — a fully opaque first sample.
    assert!((out.weights[0] - 1.0).abs() < 1e-6);
    assert!(out.color.is_finite());
}
