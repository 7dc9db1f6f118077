//! Simulated makespans and recovery counters at the default seed, one
//! fingerprint line per run in iteration order (see
//! [`crate::checks::fingerprint`]). Every default-seed run must reproduce
//! them exactly. Regenerate with `--record` only when a change deliberately
//! alters the simulated model, and say so.

use crate::work::Workload;

/// The recorded fingerprints of `workload`, or `None` for the live
/// workload, whose checks are against reference outputs instead.
pub fn fingerprints(workload: Workload) -> Option<&'static [&'static str]> {
    match workload {
        Workload::SortRack => Some(SORT_RACK),
        Workload::BdbTraced => Some(BDB_TRACED),
        Workload::FaultsSpec => Some(FAULTS_SPEC),
        Workload::LiveMr => None,
    }
}

const SORT_RACK: &[&str] = &[
    "mono makespan_ns=91594647132 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
];

const BDB_TRACED: &[&str] = &[
    "mono makespan_ns=147324771192 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "spark makespan_ns=149461563258 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
];

const FAULTS_SPEC: &[&str] = &[
    "sweep0 mono makespan_ns=75810113504 retried=91 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep0 mono+spec makespan_ns=75145621216 retried=91 speculated=0 copies=69 wins=6 fetch_retries=0 replanned=0",
    "sweep0 spark+spec makespan_ns=71989611808 retried=39 speculated=10 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle0 mono makespan_ns=56665704323 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle0 mono+spec makespan_ns=47731500193 retried=0 speculated=0 copies=14 wins=4 fetch_retries=0 replanned=0",
    "straggle0 spark+spec makespan_ns=42676757415 retried=0 speculated=4 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition0 mono makespan_ns=56902946701 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition0 mono+spec makespan_ns=71392293031 retried=16 speculated=0 copies=33 wins=0 fetch_retries=4 replanned=0",
    "partition0 spark+spec makespan_ns=61768191537 retried=56 speculated=0 copies=0 wins=0 fetch_retries=124 replanned=40",
    "sweep1 mono makespan_ns=67586292921 retried=16 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep1 mono+spec makespan_ns=65363610460 retried=16 speculated=0 copies=67 wins=20 fetch_retries=0 replanned=0",
    "sweep1 spark+spec makespan_ns=56165956680 retried=16 speculated=1 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle1 mono makespan_ns=59185129913 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle1 mono+spec makespan_ns=47754445483 retried=0 speculated=0 copies=11 wins=3 fetch_retries=0 replanned=0",
    "straggle1 spark+spec makespan_ns=40813305221 retried=0 speculated=3 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition1 mono makespan_ns=58426275182 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition1 mono+spec makespan_ns=72009020304 retried=16 speculated=0 copies=27 wins=1 fetch_retries=4 replanned=0",
    "partition1 spark+spec makespan_ns=56852586779 retried=16 speculated=0 copies=0 wins=0 fetch_retries=4 replanned=0",
    "sweep2 mono makespan_ns=63469539287 retried=16 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep2 mono+spec makespan_ns=64454453864 retried=16 speculated=0 copies=64 wins=18 fetch_retries=0 replanned=0",
    "sweep2 spark+spec makespan_ns=55300419905 retried=16 speculated=1 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle2 mono makespan_ns=63057444720 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle2 mono+spec makespan_ns=45464098515 retried=0 speculated=0 copies=11 wins=4 fetch_retries=0 replanned=0",
    "straggle2 spark+spec makespan_ns=48729104810 retried=0 speculated=4 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition2 mono makespan_ns=58946461519 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition2 mono+spec makespan_ns=71068925834 retried=16 speculated=0 copies=33 wins=1 fetch_retries=4 replanned=0",
    "partition2 spark+spec makespan_ns=59724357099 retried=56 speculated=0 copies=0 wins=0 fetch_retries=124 replanned=40",
    "sweep3 mono makespan_ns=71459962287 retried=91 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep3 mono+spec makespan_ns=73133033290 retried=91 speculated=0 copies=70 wins=10 fetch_retries=0 replanned=0",
    "sweep3 spark+spec makespan_ns=53723680458 retried=40 speculated=5 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle3 mono makespan_ns=67812040051 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle3 mono+spec makespan_ns=48401073846 retried=0 speculated=0 copies=10 wins=4 fetch_retries=0 replanned=0",
    "straggle3 spark+spec makespan_ns=44433056920 retried=0 speculated=4 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition3 mono makespan_ns=53330519104 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition3 mono+spec makespan_ns=53330519104 retried=0 speculated=0 copies=6 wins=0 fetch_retries=3 replanned=0",
    "partition3 spark+spec makespan_ns=56852586779 retried=16 speculated=0 copies=0 wins=0 fetch_retries=4 replanned=0",
    "sweep4 mono makespan_ns=70732722273 retried=16 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep4 mono+spec makespan_ns=69194082035 retried=91 speculated=0 copies=72 wins=3 fetch_retries=0 replanned=0",
    "sweep4 spark+spec makespan_ns=65228915989 retried=56 speculated=1 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle4 mono makespan_ns=55573140649 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle4 mono+spec makespan_ns=50343040640 retried=0 speculated=0 copies=10 wins=3 fetch_retries=0 replanned=0",
    "straggle4 spark+spec makespan_ns=47390133306 retried=0 speculated=3 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition4 mono makespan_ns=50484792566 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition4 mono+spec makespan_ns=50676930468 retried=0 speculated=0 copies=13 wins=0 fetch_retries=2 replanned=0",
    "partition4 spark+spec makespan_ns=42992142853 retried=0 speculated=0 copies=0 wins=0 fetch_retries=3 replanned=0",
    "sweep5 mono makespan_ns=61758973506 retried=16 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep5 mono+spec makespan_ns=59425104957 retried=16 speculated=0 copies=57 wins=11 fetch_retries=0 replanned=0",
    "sweep5 spark+spec makespan_ns=46982443150 retried=16 speculated=3 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle5 mono makespan_ns=74004762833 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle5 mono+spec makespan_ns=55786361328 retried=0 speculated=0 copies=6 wins=4 fetch_retries=0 replanned=0",
    "straggle5 spark+spec makespan_ns=57275770473 retried=0 speculated=3 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition5 mono makespan_ns=54280419667 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition5 mono+spec makespan_ns=72913358533 retried=90 speculated=0 copies=18 wins=0 fetch_retries=375 replanned=248",
    "partition5 spark+spec makespan_ns=60308962894 retried=36 speculated=0 copies=0 wins=0 fetch_retries=64 replanned=20",
    "sweep6 mono makespan_ns=64454495763 retried=16 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep6 mono+spec makespan_ns=70645156241 retried=16 speculated=0 copies=62 wins=10 fetch_retries=0 replanned=0",
    "sweep6 spark+spec makespan_ns=63445368150 retried=14 speculated=4 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle6 mono makespan_ns=54701698240 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle6 mono+spec makespan_ns=50535178542 retried=0 speculated=0 copies=17 wins=4 fetch_retries=0 replanned=0",
    "straggle6 spark+spec makespan_ns=45179529113 retried=0 speculated=4 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition6 mono makespan_ns=49369101252 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition6 mono+spec makespan_ns=49561239154 retried=0 speculated=0 copies=13 wins=0 fetch_retries=0 replanned=0",
    "partition6 spark+spec makespan_ns=41254239075 retried=0 speculated=0 copies=0 wins=0 fetch_retries=3 replanned=0",
    "sweep7 mono makespan_ns=85781026333 retried=16 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "sweep7 mono+spec makespan_ns=67840085895 retried=16 speculated=0 copies=63 wins=9 fetch_retries=0 replanned=0",
    "sweep7 spark+spec makespan_ns=56488898813 retried=16 speculated=2 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle7 mono makespan_ns=58854382429 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "straggle7 mono+spec makespan_ns=48228701457 retried=0 speculated=0 copies=9 wins=3 fetch_retries=0 replanned=0",
    "straggle7 spark+spec makespan_ns=42454778033 retried=0 speculated=3 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition7 mono makespan_ns=60152412313 retried=0 speculated=0 copies=0 wins=0 fetch_retries=0 replanned=0",
    "partition7 mono+spec makespan_ns=71392293031 retried=16 speculated=0 copies=33 wins=0 fetch_retries=4 replanned=0",
    "partition7 spark+spec makespan_ns=59128611125 retried=56 speculated=0 copies=0 wins=0 fetch_retries=124 replanned=40",
];
