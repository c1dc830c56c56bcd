//! The paper's Table 2: eleven 4-threaded benchmark mixes.

use crate::builder::Workload;

/// Classification label of a mix (Table 2, left column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixClass {
    /// Four memory-bound threads.
    FourLow,
    /// Three memory-bound + one intermediate thread.
    ThreeLowOneMid,
    /// Two memory-bound + two intermediate threads.
    TwoLowTwoMid,
    /// Four execution-bound threads.
    FourHigh,
}

/// One Table 2 workload mix.
#[derive(Clone, Debug)]
pub struct Mix {
    /// "Mix 1" .. "Mix 11".
    pub name: &'static str,
    /// Classification per Table 2.
    pub class: MixClass,
    /// The four benchmark names.
    pub benchmarks: [&'static str; 4],
}

/// The eleven mixes of Table 2, in paper order.
pub fn paper_mixes() -> Vec<Mix> {
    use MixClass::*;
    vec![
        Mix {
            name: "Mix 1",
            class: FourLow,
            benchmarks: ["ammp", "art", "mgrid", "apsi"],
        },
        Mix {
            name: "Mix 2",
            class: FourLow,
            benchmarks: ["art", "mgrid", "apsi", "parser"],
        },
        Mix {
            name: "Mix 3",
            class: FourLow,
            benchmarks: ["ammp", "mgrid", "apsi", "parser"],
        },
        Mix {
            name: "Mix 4",
            class: FourLow,
            benchmarks: ["art", "mgrid", "apsi", "vortex"],
        },
        Mix {
            name: "Mix 5",
            class: ThreeLowOneMid,
            benchmarks: ["ammp", "apsi", "parser", "crafty"],
        },
        Mix {
            name: "Mix 6",
            class: ThreeLowOneMid,
            benchmarks: ["art", "apsi", "parser", "gap"],
        },
        Mix {
            name: "Mix 7",
            class: ThreeLowOneMid,
            benchmarks: ["ammp", "apsi", "vortex", "eon"],
        },
        Mix {
            name: "Mix 8",
            class: TwoLowTwoMid,
            benchmarks: ["art", "parser", "vpr", "gzip"],
        },
        Mix {
            name: "Mix 9",
            class: TwoLowTwoMid,
            benchmarks: ["mgrid", "parser", "perlbmk", "mcf"],
        },
        Mix {
            name: "Mix 10",
            class: FourHigh,
            benchmarks: ["lucas", "twolf", "bzip2", "wupwise"],
        },
        Mix {
            name: "Mix 11",
            class: FourHigh,
            benchmarks: ["equake", "mesa", "swim", "twolf"],
        },
    ]
}

/// Looks a mix up by 1-based index (`1..=11`).
pub fn mix(index: usize) -> Mix {
    assert!(
        (1..=11).contains(&index),
        "mix index {index} out of range 1..=11"
    );
    paper_mixes().swap_remove(index - 1)
}

impl Mix {
    /// Per-thread address-space stride: threads live in disjoint 4 GiB
    /// windows so their code and data never collide in physical address
    /// terms (SPEC processes have separate address spaces; M-Sim maps
    /// them apart).
    pub const THREAD_SPACE: u64 = 1 << 32;

    /// Instantiates the four workloads, one per hardware thread. The
    /// `seed` perturbs program generation so different experiments can
    /// draw independent instances; thread `t` uses seed `seed + t`.
    pub fn instantiate(&self, seed: u64) -> Vec<Workload> {
        (0..self.benchmarks.len())
            .map(|t| self.instantiate_single(t, seed))
            .collect()
    }

    /// Instantiates the workload of hardware thread `thread` alone, as
    /// the single-threaded runs that normalize the weighted-IPC metric
    /// need it. [`Mix::instantiate`] builds every thread through here,
    /// so a thread runs the same program alone as in the mix.
    pub fn instantiate_single(&self, thread: usize, seed: u64) -> Workload {
        let name = self.benchmarks[thread];
        let base = Self::THREAD_SPACE * thread as u64;
        Workload::spec(
            name,
            seed.wrapping_add(thread as u64),
            base + 0x1_0000,
            base + 0x1000_0000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn eleven_mixes() {
        assert_eq!(paper_mixes().len(), 11);
    }

    #[test]
    fn mix_names_sequential() {
        for (i, m) in paper_mixes().iter().enumerate() {
            assert_eq!(m.name, format!("Mix {}", i + 1));
        }
    }

    #[test]
    fn all_benchmarks_known() {
        for m in paper_mixes() {
            for b in m.benchmarks {
                assert!(spec::BENCHMARKS.contains(&b), "unknown {b} in {}", m.name);
            }
        }
    }

    #[test]
    fn table2_exact_contents() {
        let m = mix(1);
        assert_eq!(m.benchmarks, ["ammp", "art", "mgrid", "apsi"]);
        let m9 = mix(9);
        assert_eq!(m9.benchmarks, ["mgrid", "parser", "perlbmk", "mcf"]);
        let m11 = mix(11);
        assert_eq!(m11.benchmarks, ["equake", "mesa", "swim", "twolf"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mix_zero_panics() {
        let _ = mix(0);
    }

    #[test]
    fn instantiation_gives_disjoint_spaces() {
        let wls = mix(1).instantiate(42);
        assert_eq!(wls.len(), 4);
        for (t, w) in wls.iter().enumerate() {
            let base = Mix::THREAD_SPACE * t as u64;
            assert!(w.program.pc_base() >= base);
            assert!(w.program.pc_base() < base + Mix::THREAD_SPACE);
        }
    }

    #[test]
    fn single_instantiation_matches_mix_slot() {
        let m = mix(2);
        let w = m.instantiate_single(1, 42);
        assert_eq!(w.profile.name, "mgrid");
        // Same seed and slot as the 4-thread instantiation ⇒ identical
        // program (the normalization baseline runs the same binary).
        let w4 = &m.instantiate(42)[1];
        assert_eq!(w.program.num_insts(), w4.program.num_insts());
    }

    #[test]
    fn mix_classes_match_table() {
        assert_eq!(mix(1).class, MixClass::FourLow);
        assert_eq!(mix(5).class, MixClass::ThreeLowOneMid);
        assert_eq!(mix(9).class, MixClass::TwoLowTwoMid);
        assert_eq!(mix(10).class, MixClass::FourHigh);
    }
}
