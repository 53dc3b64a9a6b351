//! Closed-form sparse stretches against single steps and the dense planes.
//!
//! `SparseState::{grover,block_grover}_iterations(m)` advance the class
//! rung `m` iterations in one pass.  Here each is compared, for a spread of
//! `m` (zero, one, two, odd, even, ~300), with `m` single iterations of the
//! same sparse state and with the dense kernels, on every rung a noisy
//! trajectory can leave the state on: after an off-target collapse (real
//! values, pinned survivor), after dephasing kicks (complex values, split
//! classes) and on the degraded basis map.  The shapes include blocks of
//! two (a block holding only pinned addresses) and of one (the stepping
//! fallback of the per-block stretch).

use psq_sim::noise::{apply_channels, QueryNoise};
use psq_sim::oracle::{Database, Partition};
use psq_sim::sparse::SparseState;
use psq_sim::statevector::StateVector;

const STRETCHES: [u64; 6] = [0, 1, 2, 7, 10, 301];
const TOL: f64 = 1e-12;

/// How the state is prepared before the stretch.
#[derive(Clone, Copy, Debug)]
enum Prep {
    /// A few iterations, then a collapse onto a non-target address.
    Collapse(u64),
    /// Iterations interleaved with dephasing kicks on these bits.
    Kicks([u32; 3]),
    /// A one-class budget forced down to the basis map by a kick.
    Map,
}

fn channel(depolarize: Option<u64>, dephase: Option<(u32, f64)>) -> QueryNoise {
    QueryNoise {
        faulty: false,
        depolarize,
        dephase,
    }
}

/// The same prepared state on the dense planes and the sparse classes.
fn prepared(n: u64, k: u64, target: u64, prep: Prep) -> (StateVector, SparseState) {
    let db = Database::new(n, target);
    let partition = Partition::new(n, k);
    let mut dense = StateVector::uniform(n as usize);
    let mut sparse = SparseState::uniform(n, k, target);
    if matches!(prep, Prep::Map) {
        sparse = sparse.with_max_classes(4);
    }
    let mut both = |event: QueryNoise| {
        dense.grover_iteration(&db);
        sparse.grover_iteration();
        dense.block_grover_iterations(&db, &partition, 1);
        sparse.block_grover_iteration();
        apply_channels(&mut dense, &event);
        sparse.apply_channels(&event);
    };
    match prep {
        Prep::Collapse(x) => both(channel(Some(x), None)),
        Prep::Kicks(bits) => {
            for (i, bit) in bits.into_iter().enumerate() {
                both(channel(None, Some((bit, 0.7 + i as f64))));
            }
        }
        Prep::Map => both(channel(None, Some((0, 1.1)))),
    }
    match prep {
        Prep::Collapse(_) => assert!(sparse.class_count() <= k as usize + 2),
        Prep::Kicks(_) => assert!(!sparse.is_degraded()),
        Prep::Map => assert!(sparse.is_degraded()),
    }
    (dense, sparse)
}

fn assert_amplitudes_close(a: &SparseState, b: impl Fn(u64) -> (f64, f64), what: &str) {
    for x in 0..a.n() {
        let s = a.amplitude(x);
        let (re, im) = b(x);
        assert!(
            (s.re - re).abs() <= TOL && (s.im - im).abs() <= TOL,
            "{what}: amplitude {x} diverged: sparse {s:?} vs ({re}, {im})"
        );
    }
}

/// Runs every stretch length, global and per-block, from the prepared
/// state and checks fused against stepped and against dense.
fn check(n: u64, k: u64, target: u64, prep: Prep) {
    let db = Database::new(n, target);
    let partition = Partition::new(n, k);
    let (dense0, sparse0) = prepared(n, k, target, prep);
    for m in STRETCHES {
        for per_block in [false, true] {
            let what = format!("n={n} k={k} {prep:?} m={m} per_block={per_block}");
            let (mut dense, mut fused, mut stepped) =
                (dense0.clone(), sparse0.clone(), sparse0.clone());
            if per_block {
                dense.block_grover_iterations(&db, &partition, m);
                fused.block_grover_iterations(m);
                (0..m).for_each(|_| stepped.block_grover_iteration());
            } else {
                dense.grover_iterations(&db, m);
                fused.grover_iterations(m);
                (0..m).for_each(|_| stepped.grover_iteration());
            }
            assert_eq!(fused.queries(), sparse0.queries() + m, "{what}");
            assert_eq!(fused.queries(), stepped.queries(), "{what}");
            assert_eq!(fused.class_count(), stepped.class_count(), "{what}");
            assert_amplitudes_close(
                &fused,
                |x| {
                    let d = dense.amplitude(x as usize);
                    (d.re, d.im)
                },
                &format!("{what} vs dense"),
            );
            assert_amplitudes_close(
                &fused,
                |x| {
                    let s = stepped.amplitude(x);
                    (s.re, s.im)
                },
                &format!("{what} vs stepped"),
            );
        }
    }
}

#[test]
fn stretches_after_an_off_target_collapse_match_single_steps() {
    // Survivor in another block, then in the target's own block.
    check(1 << 10, 8, 777, Prep::Collapse(100));
    check(1 << 12, 64, 3000, Prep::Collapse(3001));
    // Blocks of two: target and survivor share a block with no class.
    check(64, 32, 10, Prep::Collapse(11));
    // Blocks of one: the per-block stretch falls back to stepping.
    check(16, 16, 5, Prep::Collapse(9));
}

#[test]
fn stretches_after_dephasing_kicks_match_single_steps() {
    check(1 << 10, 8, 777, Prep::Kicks([0, 3, 8]));
    check(1 << 12, 16, 1234, Prep::Kicks([1, 5, 11]));
    check(64, 32, 10, Prep::Kicks([0, 2, 4]));
    check(16, 16, 5, Prep::Kicks([0, 1, 3]));
}

#[test]
fn stretches_on_the_basis_map_match_single_steps() {
    check(256, 4, 37, Prep::Map);
    check(16, 16, 5, Prep::Map);
}

#[test]
fn kicked_states_are_complex_with_split_classes() {
    let (_, sparse) = prepared(1 << 10, 8, 777, Prep::Kicks([0, 3, 8]));
    assert!(sparse.split_events() > 0);
    assert!(sparse.class_count() > 8 + 2);
    assert!((0..sparse.n()).any(|x| sparse.amplitude(x).im.abs() > 1e-6));
}
