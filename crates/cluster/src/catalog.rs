//! Table I: the machine catalog.
//!
//! Six Amazon EC2 instance types (prices as listed in the paper) plus the
//! two local Xeon E5 servers, and the frequency-scaled "tiny ARM-like"
//! node used to project future data centers (Case 3).
//!
//! Thread counts and hourly rates are the paper's exact Table I values.
//! The microarchitectural parameters (frequency, IPC, memory bandwidth,
//! power envelope) are the calibrated ground truth of our simulated
//! testbed: they are chosen so the model reproduces the paper's observed
//! *relative* behaviours — c4.2xlarge ≈ 1.2× m4.2xlarge, r3.2xlarge ≈ 1.1×,
//! Case 2 CCRs around 1 : 3.5, PageRank saturating at mid-size machines —
//! and they are invisible to every scheduling policy (policies see thread
//! counts or profiled times only).

use crate::machine::MachineSpec;

fn ec2(
    name: &str,
    hw_threads: u32,
    freq_ghz: f64,
    ipc: f64,
    mem_bw_gbps: f64,
    nic_gbps: f64,
    hourly_rate: f64,
) -> MachineSpec {
    let spec = MachineSpec {
        name: name.into(),
        hw_threads,
        reserved_threads: 2,
        freq_ghz,
        ipc,
        mem_bw_gbps,
        nic_gbps,
        // Synthesized envelope: EC2 energy is not measurable (the paper
        // only measures energy on the local servers), but the simulator
        // needs finite values.
        idle_power_w: 20.0 + 2.5 * hw_threads as f64,
        peak_power_w: 40.0 + 10.0 * hw_threads as f64,
        hourly_rate: Some(hourly_rate),
    };
    spec.assert_valid();
    spec
}

/// `c4.xlarge` — 4 HW threads / 2 computing, $0.209/h.
pub fn c4_xlarge() -> MachineSpec {
    ec2("c4.xlarge", 4, 2.9, 1.0, 8.0, 1.25, 0.209)
}

/// `c4.2xlarge` — 8 HW threads / 6 computing, $0.419/h.
pub fn c4_2xlarge() -> MachineSpec {
    ec2("c4.2xlarge", 8, 2.9, 1.0, 13.0, 2.5, 0.419)
}

/// `c4.4xlarge` — 16 HW threads / 14 computing, $0.838/h.
pub fn c4_4xlarge() -> MachineSpec {
    ec2("c4.4xlarge", 16, 2.9, 1.0, 22.0, 5.0, 0.838)
}

/// `c4.8xlarge` — 36 HW threads / 34 computing, $1.675/h.
pub fn c4_8xlarge() -> MachineSpec {
    ec2("c4.8xlarge", 36, 2.9, 1.0, 24.0, 10.0, 1.675)
}

/// `m4.2xlarge` — 8 HW threads / 6 computing, $0.479/h (general purpose;
/// lower clock than c4).
pub fn m4_2xlarge() -> MachineSpec {
    ec2("m4.2xlarge", 8, 2.4, 1.0, 12.5, 2.5, 0.479)
}

/// `r3.2xlarge` — 8 HW threads / 6 computing, $0.665/h (memory optimized;
/// more bandwidth, slightly better IPC).
pub fn r3_2xlarge() -> MachineSpec {
    ec2("r3.2xlarge", 8, 2.5, 1.05, 14.0, 2.5, 0.665)
}

/// Local "Xeon Server S" — 4 HW threads / 2 computing (Table I), 2.5 GHz.
pub fn xeon_s() -> MachineSpec {
    let spec = MachineSpec {
        name: "xeon_s".into(),
        hw_threads: 4,
        reserved_threads: 2,
        freq_ghz: 2.5,
        ipc: 1.0,
        mem_bw_gbps: 10.0,
        nic_gbps: 10.0,
        idle_power_w: 40.0,
        peak_power_w: 95.0,
        hourly_rate: None,
    };
    spec.assert_valid();
    spec
}

/// Local "Xeon Server L" — 12 HW threads / 10 computing, 2.5 GHz (the
/// paper's Case 2 "fast" machine; Case 3 caps it at 2.5 GHz too).
pub fn xeon_l() -> MachineSpec {
    let spec = MachineSpec {
        name: "xeon_l".into(),
        hw_threads: 12,
        reserved_threads: 2,
        freq_ghz: 2.5,
        ipc: 1.0,
        mem_bw_gbps: 25.0,
        nic_gbps: 10.0,
        idle_power_w: 65.0,
        peak_power_w: 180.0,
        hourly_rate: None,
    };
    spec.assert_valid();
    spec
}

/// The Case 3 "tiny" node: 4 HW threads at 1.8 GHz with ARM-class IPC and
/// a narrow memory system. Emulates the wimpy servers the paper projects
/// into future data centers.
pub fn tiny_arm() -> MachineSpec {
    let spec = MachineSpec {
        name: "tiny_arm".into(),
        hw_threads: 4,
        reserved_threads: 2,
        freq_ghz: 1.8,
        ipc: 0.75,
        mem_bw_gbps: 4.0,
        nic_gbps: 10.0,
        idle_power_w: 15.0,
        peak_power_w: 35.0,
        hourly_rate: None,
    };
    spec.assert_valid();
    spec
}

/// All eight Table I machines, in the paper's row order.
pub fn table1() -> Vec<MachineSpec> {
    vec![
        c4_xlarge(),
        c4_2xlarge(),
        m4_2xlarge(),
        r3_2xlarge(),
        c4_4xlarge(),
        c4_8xlarge(),
        xeon_s(),
        xeon_l(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_thread_counts_match_paper() {
        let expect: [(&str, u32, u32); 8] = [
            ("c4.xlarge", 4, 2),
            ("c4.2xlarge", 8, 6),
            ("m4.2xlarge", 8, 6),
            ("r3.2xlarge", 8, 6),
            ("c4.4xlarge", 16, 14),
            ("c4.8xlarge", 36, 34),
            ("xeon_s", 4, 2),
            ("xeon_l", 12, 10),
        ];
        let t1 = table1();
        assert_eq!(t1.len(), 8);
        for (spec, (name, hw, comp)) in t1.iter().zip(expect) {
            assert_eq!(spec.name, name);
            assert_eq!(spec.hw_threads, hw, "{name}");
            assert_eq!(spec.computing_threads(), comp, "{name}");
        }
    }

    #[test]
    fn table1_prices_match_paper() {
        let prices = [
            ("c4.xlarge", 0.209),
            ("c4.2xlarge", 0.419),
            ("m4.2xlarge", 0.479),
            ("r3.2xlarge", 0.665),
            ("c4.4xlarge", 0.838),
            ("c4.8xlarge", 1.675),
        ];
        let t1 = table1();
        for (spec, (name, price)) in t1.iter().zip(prices) {
            assert_eq!(spec.name, name);
            assert_eq!(spec.hourly_rate, Some(price), "{name}");
        }
        // The two local Xeons are owned, not rented.
        assert!(t1[6..].iter().all(|m| m.hourly_rate.is_none()));
    }

    #[test]
    fn all_specs_valid() {
        for m in table1().iter().chain(std::iter::once(&tiny_arm())) {
            m.assert_valid();
        }
    }

    #[test]
    fn same_category_machines_share_clock() {
        assert_eq!(c4_xlarge().freq_ghz, c4_8xlarge().freq_ghz);
    }

    #[test]
    fn categories_differ_microarchitecturally() {
        // The whole point of Case 1: identical thread counts, different
        // real capability.
        let c4 = c4_2xlarge();
        let m4 = m4_2xlarge();
        let r3 = r3_2xlarge();
        assert_eq!(c4.computing_threads(), m4.computing_threads());
        assert_eq!(c4.computing_threads(), r3.computing_threads());
        assert!(c4.thread_gops() > m4.thread_gops());
        assert!(r3.mem_bw_gbps > m4.mem_bw_gbps);
    }

    #[test]
    fn tiny_arm_is_weaker_everywhere() {
        let tiny = tiny_arm();
        let s = xeon_s();
        assert!(tiny.thread_gops() < s.thread_gops());
        assert!(tiny.mem_bw_gbps < s.mem_bw_gbps);
        assert!(tiny.peak_power_w < s.peak_power_w);
    }
}
