//! The paper's Figure 1 analytical model.
//!
//! *Scenario:* `n` client requests are queued at the server at time 0.
//! Serving one request costs `α + β`, where `α` is per-request and `β` is
//! per-batch (amortizable). Batched processing finishes all `n` at
//! `n·α + β`; unbatched processing emits response `i` at `i·(α + β)`.
//! The client then processes each response serially at cost `c`.
//!
//! A request's latency is the time until the client *finishes processing*
//! its response; throughput is `n` over the time the last response is
//! processed. The model reproduces the paper's three regimes for
//! `α = 2, β = 4, n = 3`:
//!
//! | `c` | outcome |
//! |-----|---------------------------------------------|
//! | 1   | batching improves latency *and* throughput   |
//! | 3   | batching improves throughput, hurts latency  |
//! | 5   | batching hurts both                          |
//!
//! The point of the figure — and of the paper — is that the server-side
//! activity is *identical* in all three rows; only the client's `c`
//! differs, and the server cannot observe it without an end-to-end
//! exchange.

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Params {
    /// Number of requests queued at time 0.
    pub(crate) n: u32,
    /// Per-request server cost.
    pub(crate) alpha: f64,
    /// Per-batch (amortizable) server cost.
    pub(crate) beta: f64,
    /// Per-response client processing cost.
    pub(crate) c: f64,
}

impl Figure1Params {
    /// The paper's parameters with a chosen client cost.
    pub fn paper(c: f64) -> Self {
        Figure1Params {
            n: 3,
            alpha: 2.0,
            beta: 4.0,
            c,
        }
    }
}

/// Average performance of one processing discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Mean request latency (request issue → client finishes processing
    /// the response), in model time units.
    pub avg_latency: f64,
    /// Completed requests per model time unit.
    pub throughput: f64,
    /// Time the last response finishes client processing.
    pub(crate) completion: f64,
    /// Per-request completion times.
    pub(crate) latencies: Vec<f64>,
}

/// Side-by-side outcome of batched vs. unbatched processing.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Model inputs.
    pub(crate) params: Figure1Params,
    /// Requests processed as one batch.
    pub batched: Metrics,
    /// Requests processed individually.
    pub unbatched: Metrics,
}

impl BatchOutcome {
    /// True if batching improves (strictly lowers) average latency.
    pub fn batching_improves_latency(&self) -> bool {
        self.batched.avg_latency < self.unbatched.avg_latency
    }

    /// True if batching improves (strictly raises) throughput.
    pub fn batching_improves_throughput(&self) -> bool {
        self.batched.throughput > self.unbatched.throughput
    }
}

fn client_pipeline(arrivals: &[f64], c: f64) -> Metrics {
    let mut finish = 0.0f64;
    let mut latencies = Vec::with_capacity(arrivals.len());
    for &a in arrivals {
        finish = finish.max(a) + c;
        latencies.push(finish);
    }
    let n = arrivals.len() as f64;
    Metrics {
        avg_latency: latencies.iter().sum::<f64>() / n,
        throughput: n / finish,
        completion: finish,
        latencies,
    }
}

/// Evaluates the model.
///
/// # Panics
///
/// Panics if `n == 0` or any cost is negative.
pub fn figure1_model(params: Figure1Params) -> BatchOutcome {
    assert!(params.n > 0, "need at least one request");
    assert!(
        params.alpha >= 0.0 && params.beta >= 0.0 && params.c >= 0.0,
        "costs must be non-negative"
    );
    let n = params.n as usize;
    // Batched: all n responses emitted when the batch completes.
    let batch_done = params.n as f64 * params.alpha + params.beta;
    let batched_arrivals = vec![batch_done; n];
    // Unbatched: response i at i·(α+β).
    let unbatched_arrivals: Vec<f64> = (1..=n)
        .map(|i| i as f64 * (params.alpha + params.beta))
        .collect();
    BatchOutcome {
        params,
        batched: client_pipeline(&batched_arrivals, params.c),
        unbatched: client_pipeline(&unbatched_arrivals, params.c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn figure_1a_c1_batching_improves_both() {
        let out = figure1_model(Figure1Params::paper(1.0));
        // Batched: responses at 10; client finishes 11, 12, 13.
        assert!(close(out.batched.avg_latency, 12.0));
        assert!(close(out.batched.completion, 13.0));
        // Unbatched: responses at 6, 12, 18; finishes 7, 13, 19.
        assert!(close(out.unbatched.avg_latency, 13.0));
        assert!(close(out.unbatched.completion, 19.0));
        assert!(out.batching_improves_latency());
        assert!(out.batching_improves_throughput());
    }

    #[test]
    fn figure_1c_c3_mixed_outcome() {
        let out = figure1_model(Figure1Params::paper(3.0));
        // Batched finishes: 13, 16, 19 → avg 16. Unbatched: 9, 15, 21 →
        // avg 15.
        assert!(close(out.batched.avg_latency, 16.0));
        assert!(close(out.unbatched.avg_latency, 15.0));
        assert!(!out.batching_improves_latency());
        assert!(out.batching_improves_throughput());
    }

    #[test]
    fn figure_1b_c5_batching_hurts_both() {
        let out = figure1_model(Figure1Params::paper(5.0));
        // Batched finishes: 15, 20, 25 → avg 20. Unbatched: 11, 17, 23 →
        // avg 17.
        assert!(close(out.batched.avg_latency, 20.0));
        assert!(close(out.unbatched.avg_latency, 17.0));
        assert!(!out.batching_improves_latency());
        assert!(!out.batching_improves_throughput());
    }

    #[test]
    fn server_side_view_is_identical_across_c() {
        // The motivating observation: server-side completion of the batch
        // does not depend on c at all.
        let a = figure1_model(Figure1Params::paper(1.0));
        let b = figure1_model(Figure1Params::paper(5.0));
        let server_batched_done =
            |o: &BatchOutcome| o.params.n as f64 * o.params.alpha + o.params.beta;
        assert!(close(server_batched_done(&a), server_batched_done(&b)));
    }

    #[test]
    fn single_request_batching_never_helps() {
        // With n = 1 both disciplines cost α + β + c.
        let out = figure1_model(Figure1Params {
            n: 1,
            alpha: 2.0,
            beta: 4.0,
            c: 3.0,
        });
        assert!(close(out.batched.avg_latency, out.unbatched.avg_latency));
        assert!(close(out.batched.throughput, out.unbatched.throughput));
    }

    #[test]
    fn zero_client_cost_makes_batching_strictly_better() {
        // With c = 0 the client is free; batching amortizes β with no
        // downside (for n ≥ 2).
        let out = figure1_model(Figure1Params::paper(0.0));
        assert!(out.batching_improves_latency());
        assert!(out.batching_improves_throughput());
    }

    #[test]
    fn latencies_are_monotone() {
        let out = figure1_model(Figure1Params::paper(3.0));
        for m in [&out.batched, &out.unbatched] {
            for w in m.latencies.windows(2) {
                assert!(w[1] >= w[0]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_requests_rejected() {
        let _ = figure1_model(Figure1Params {
            n: 0,
            alpha: 1.0,
            beta: 1.0,
            c: 1.0,
        });
    }
}
