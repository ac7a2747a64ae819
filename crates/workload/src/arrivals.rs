//! Expanding a per-second QPS trace into individual arrival timestamps.

use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How arrivals are distributed within each second of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: the number of queries in each second is the trace rate and
    /// inter-arrival gaps are exponential. This is what the paper's simulator uses and
    /// what open-loop load generators produce.
    Poisson,
    /// Evenly spaced arrivals at exactly the trace rate (deterministic; useful for
    /// reproducible unit tests and capacity measurements without sampling noise).
    Uniform,
}

/// Generate arrival timestamps (in seconds, ascending) for a trace.
///
/// For [`ArrivalProcess::Poisson`] the expected number of arrivals equals the trace's
/// [`Trace::total_queries`]; the realized count fluctuates around it. For
/// [`ArrivalProcess::Uniform`] the realized count is the per-second rate rounded to an
/// integer (fractional rates carry over to subsequent seconds so the long-run rate is
/// preserved).
pub fn generate_arrivals(trace: &Trace, process: ArrivalProcess, seed: u64) -> Vec<f64> {
    match process {
        ArrivalProcess::Poisson => poisson_arrivals(trace, seed),
        ArrivalProcess::Uniform => uniform_arrivals(trace),
    }
}

fn poisson_arrivals(trace: &Trace, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((trace.total_queries() as usize).saturating_add(16));
    for sec in 0..trace.duration_secs() {
        let rate = trace.qps_at(sec);
        if rate <= 0.0 {
            continue;
        }
        // Exponential inter-arrival times within the second.
        let mut t = sec as f64;
        let end = sec as f64 + 1.0;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= end {
                break;
            }
            out.push(t);
        }
    }
    out
}

fn uniform_arrivals(trace: &Trace) -> Vec<f64> {
    let mut out = Vec::with_capacity((trace.total_queries() as usize).saturating_add(16));
    let mut carry = 0.0f64;
    for sec in 0..trace.duration_secs() {
        let rate = trace.qps_at(sec);
        let want = rate + carry;
        let count = want.floor() as usize;
        carry = want - count as f64;
        if count == 0 {
            continue;
        }
        let gap = 1.0 / count as f64;
        for i in 0..count {
            out.push(sec as f64 + (i as f64 + 0.5) * gap);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn uniform_arrivals_match_rate_exactly() {
        let t = generators::constant(10, 100.0);
        let arr = generate_arrivals(&t, ArrivalProcess::Uniform, 0);
        assert_eq!(arr.len(), 1000);
        // sorted and within range
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&x| (0.0..10.0).contains(&x)));
    }

    #[test]
    fn uniform_arrivals_carry_fractional_rates() {
        let t = generators::constant(10, 0.5);
        let arr = generate_arrivals(&t, ArrivalProcess::Uniform, 0);
        // 0.5 qps over 10 s -> 5 arrivals thanks to the carry
        assert_eq!(arr.len(), 5);
    }

    #[test]
    fn poisson_arrivals_are_reproducible_and_close_to_rate() {
        let t = generators::constant(60, 200.0);
        let a = generate_arrivals(&t, ArrivalProcess::Poisson, 42);
        let b = generate_arrivals(&t, ArrivalProcess::Poisson, 42);
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b);
        let expected = 60.0 * 200.0;
        let got = a.len() as f64;
        assert!(
            (got - expected).abs() < 0.05 * expected,
            "got {got}, expected about {expected}"
        );
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn different_seeds_differ() {
        let t = generators::constant(10, 50.0);
        let a = generate_arrivals(&t, ArrivalProcess::Poisson, 1);
        let b = generate_arrivals(&t, ArrivalProcess::Poisson, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_produces_no_arrivals() {
        let t = generators::constant(10, 0.0);
        assert!(generate_arrivals(&t, ArrivalProcess::Poisson, 3).is_empty());
        assert!(generate_arrivals(&t, ArrivalProcess::Uniform, 3).is_empty());
    }

    #[test]
    fn time_varying_rate_is_respected() {
        let t = generators::steps(&[(10, 10.0), (10, 200.0)]);
        let arr = generate_arrivals(&t, ArrivalProcess::Poisson, 7);
        let first: usize = arr.iter().filter(|&&x| x < 10.0).count();
        let second: usize = arr.iter().filter(|&&x| x >= 10.0).count();
        assert!(second > 10 * first, "first={first}, second={second}");
    }
}
