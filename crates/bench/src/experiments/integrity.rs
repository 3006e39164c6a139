//! `integrity_storm` — bit-flip rate vs. detection coverage, SDC escape
//! rate, and recovery latency overhead.
//!
//! Each point runs the pressured canneal/TMCC configuration of the
//! robustness sweep under a deterministic [`BitFlipPlan`] storm: seeded
//! single/burst/row-hammer upsets cycling over every target (ML2
//! payloads, raw ML1 data, CTE directory slots, the free map), injected
//! inside the measured window. The detect/recover/poison ladder runs end
//! to end — real codec, real CRC seal, real parity scrub — and the row
//! reports both sides of the coverage story: what the tags caught and
//! repaired, and what escaped as silent data corruption (uncovered ML1
//! data, even-weight parity-blind bursts).
//!
//! The quiet point (zero flips) doubles as the golden-stability control:
//! an empty plan draws nothing from the flip RNG, so its row must stay
//! byte-identical to pre-integrity baselines. The sweep is journal-
//! resumable and byte-identical at any `--jobs`.

use super::robustness::{pressured_cfg, window};
use crate::print_table;
use crate::sweep::{Scale, SweepCtx};
use serde::Serialize;
use tmcc::{BitFlipPlan, SystemConfig};

/// Storm intensities: planned flip events inside the measured window.
pub fn grid_events(scale: Scale) -> Vec<(&'static str, u64)> {
    match scale {
        Scale::Full => vec![("quiet", 0), ("drizzle", 12), ("storm", 48), ("hammer", 144)],
        Scale::Test => vec![("quiet", 0), ("storm", 12)],
    }
}

/// One storm point: `events` flips spread over the middle 3/4 of the
/// measured window, cycling the full target × shape matrix.
fn point_cfg(scale: Scale, events: u64) -> SystemConfig {
    let (warmup, measured) = window(scale);
    let plan = match (measured * 3 / 4).checked_div(events) {
        None => BitFlipPlan::none(),
        Some(period) => BitFlipPlan::storm(warmup + measured / 8, period.max(1), events),
    };
    pressured_cfg().with_flip_plan(plan).with_audit()
}

#[derive(Serialize, Default)]
struct Row {
    rate: &'static str,
    flips_planned: u64,
    completed: bool,
    error: Option<String>,
    flips_injected: u64,
    corruptions_detected: u64,
    corruptions_corrected: u64,
    corruptions_uncorrectable: u64,
    sdc_escapes: u64,
    metadata_corruptions_detected: u64,
    frames_poisoned: u64,
    detection_coverage: f64,
    sdc_escape_rate: f64,
    recovery_rate: f64,
    recovery_ns: f64,
    /// Recovery time as a share of the measured window's simulated time —
    /// the latency overhead the ladder charged for detection + repair.
    recovery_overhead_pct: f64,
    perf_accesses_per_us: f64,
}

pub fn run(ctx: &SweepCtx) {
    let scale = ctx.scale();
    let (_, measured) = window(scale);
    let out: Vec<Row> = ctx.par_map(grid_events(scale), |(rate, events)| {
        let cfg = point_cfg(scale, events);
        match ctx.try_run(cfg, measured) {
            Ok(r) => {
                let s = &r.stats;
                // Simulated wall time of the measured window, from the
                // throughput the report already pins.
                let window_ns = if r.perf_accesses_per_us() > 0.0 {
                    measured as f64 / r.perf_accesses_per_us() * 1e3
                } else {
                    0.0
                };
                Row {
                    rate,
                    flips_planned: events,
                    completed: true,
                    error: None,
                    flips_injected: s.flips_injected,
                    corruptions_detected: s.corruptions_detected,
                    corruptions_corrected: s.corruptions_corrected,
                    corruptions_uncorrectable: s.corruptions_uncorrectable,
                    sdc_escapes: s.sdc_escapes,
                    metadata_corruptions_detected: s.metadata_corruptions_detected,
                    frames_poisoned: s.frames_poisoned,
                    detection_coverage: s.detection_coverage(),
                    sdc_escape_rate: s.sdc_escape_rate(),
                    recovery_rate: s.recovery_rate(),
                    recovery_ns: s.recovery_ns,
                    recovery_overhead_pct: if window_ns > 0.0 {
                        s.recovery_ns / window_ns * 100.0
                    } else {
                        0.0
                    },
                    perf_accesses_per_us: r.perf_accesses_per_us(),
                }
            }
            Err(e) => {
                Row { rate, flips_planned: events, error: Some(e.to_string()), ..Row::default() }
            }
        }
    });
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            vec![
                r.rate.to_string(),
                r.flips_injected.to_string(),
                format!("{:.0}%", r.detection_coverage * 100.0),
                r.corruptions_corrected.to_string(),
                r.corruptions_uncorrectable.to_string(),
                r.sdc_escapes.to_string(),
                r.frames_poisoned.to_string(),
                format!("{:.3}%", r.recovery_overhead_pct),
                format!("{:.2}", r.perf_accesses_per_us),
            ]
        })
        .collect();
    print_table(
        "Integrity storm — flip rate vs. detection coverage and SDC escapes (canneal, TMCC)",
        [
            "rate",
            "flips",
            "detected",
            "corrected",
            "uncorr",
            "SDC",
            "poisoned",
            "rec ovh",
            "acc/us",
        ]
        .as_ref(),
        &rows,
    );
    for r in out.iter().filter(|r| r.completed && r.flips_injected > 0) {
        println!(
            "{:>8}: {:.0}% detected, {} silent escape(s), {:.0} ns recovery",
            r.rate,
            r.detection_coverage * 100.0,
            r.sdc_escapes,
            r.recovery_ns
        );
    }
    ctx.emit("integrity_storm", &out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_include_a_quiet_control_at_every_scale() {
        for scale in [Scale::Full, Scale::Test] {
            let grid = grid_events(scale);
            assert!(grid.iter().any(|&(_, e)| e == 0), "{scale:?} needs the flip-free control");
            assert!(grid.iter().any(|&(_, e)| e > 0), "{scale:?} needs a real storm");
        }
    }

    #[test]
    fn quiet_point_has_an_empty_plan() {
        // The flip-free control must not perturb pre-integrity goldens:
        // an empty plan draws nothing from the flip RNG.
        assert!(point_cfg(Scale::Full, 0).flip_plan.is_empty());
        assert!(!point_cfg(Scale::Full, 12).flip_plan.is_empty());
    }

    #[test]
    fn storm_lands_inside_the_measured_window() {
        for scale in [Scale::Full, Scale::Test] {
            let (warmup, measured) = window(scale);
            for (_, events) in grid_events(scale) {
                let cfg = point_cfg(scale, events);
                for ev in &cfg.flip_plan.events {
                    assert!(ev.at_access >= warmup, "{scale:?}: flip in warmup");
                    assert!(ev.at_access < warmup + measured, "{scale:?}: flip after the run");
                }
            }
        }
    }
}
