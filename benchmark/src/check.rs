//! The correctness gate, run after the measured phase on what the lanes
//! recorded: every answer against the in-process index of the served
//! snapshot, and a sample against the online constrained BFS, which shares
//! no code with the index.

use crate::gen::Query;
use crate::load::{Generation, LaneLog, FAILED, UNREACHABLE};
use wcsd_baselines::online::constrained_bfs;
use wcsd_core::FlatIndex;
use wcsd_graph::Graph;

/// Answers checked against the BFS oracle per run.
pub const ORACLE_SAMPLE: usize = 1000;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Requests sent in the measured phase.
    pub requests: u64,
    /// Queries those requests carried.
    pub attempted: u64,
    /// Queries that failed: errors, refusals and wrong answers.
    pub failed: u64,
    pub errors: u64,
    pub refused: u64,
    pub wrong: u64,
    pub oracle_checked: u64,
    pub first_problem: Option<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn note(&mut self, problem: impl FnOnce() -> String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(problem());
        }
    }

    fn tally_lanes(&mut self, lanes: &[LaneLog]) {
        for lane in lanes {
            self.requests += lane.requests.len() as u64;
            self.attempted += lane.queries.len() as u64;
            self.errors += lane.errors;
            self.refused += lane.refused;
            if let Some(e) = &lane.first_error {
                self.note(|| format!("request failed: {e}"));
            }
        }
    }
}

fn reference(flat: &FlatIndex, (s, t, w): Query) -> u32 {
    flat.distance(s, t, w).unwrap_or(UNREACHABLE)
}

fn oracle(graph: &Graph, (s, t, w): Query) -> u32 {
    constrained_bfs(graph, s, t, w).unwrap_or(UNREACHABLE)
}

/// Checker threads per lane: the reference merge is the slow part of a
/// check, and the lanes are done by then.
const CHECKERS_PER_LANE: usize = 2;

/// What one checker thread found in its share of a lane.
#[derive(Default)]
struct Found {
    wrong: u64,
    oracle_checked: u64,
    first_problem: Option<String>,
}

impl Found {
    fn wrong(&mut self, problem: impl FnOnce() -> String) {
        self.wrong += 1;
        self.first_problem.get_or_insert_with(problem);
    }
}

/// Runs `check` over every lane's requests, split into contiguous shares
/// with one thread each, and folds what they found into a verdict. `check`
/// gets the lane, its share of request indexes, and the stride at which to
/// consult the BFS oracle so that about [`ORACLE_SAMPLE`] answers are.
fn check_lanes(
    lanes: &[LaneLog],
    check: impl Fn(&LaneLog, std::ops::Range<usize>, usize) -> Found + Sync,
) -> Verdict {
    let mut verdict = Verdict::default();
    verdict.tally_lanes(lanes);
    let total: usize = lanes.iter().map(|l| l.queries.len()).sum();
    let found: Vec<Found> = std::thread::scope(|scope| {
        let check = &check;
        let handles: Vec<_> = lanes
            .iter()
            .flat_map(|lane| {
                let n = lane.requests.len();
                let per_query = lane.queries.len() / n.max(1);
                let stride = (total / ORACLE_SAMPLE / per_query.max(1)).max(1);
                let share = n.div_ceil(CHECKERS_PER_LANE).max(1);
                (0..n).step_by(share).map(move |from| {
                    scope.spawn(move || check(lane, from..(from + share).min(n), stride))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("checker thread panicked")).collect()
    });
    for f in found {
        verdict.wrong += f.wrong;
        verdict.oracle_checked += f.oracle_checked;
        if let Some(problem) = f.first_problem {
            verdict.note(|| problem);
        }
    }
    verdict.failed = verdict.errors + verdict.refused + verdict.wrong;
    verdict
}

/// Checks a workload whose served index never changed. `flat` answers for
/// the whole graph (for the routed workload: an unsharded index of the same
/// graph, to which routed answers must be bit-identical).
pub fn check_static(lanes: &[LaneLog], flat: &FlatIndex, graph: &Graph) -> Verdict {
    check_lanes(lanes, |lane, requests, stride| {
        let mut found = Found::default();
        for i in requests {
            let request = lane.requests[i];
            let first = request.first as usize;
            for k in first..first + request.len as usize {
                let (q, served) = (lane.queries[k], lane.answers[k]);
                if served == FAILED {
                    continue;
                }
                let expected = reference(flat, q);
                if served != expected {
                    found.wrong(|| format!("{q:?} answered {served}, the index says {expected}"));
                } else if i % stride == 0 && k == first {
                    found.oracle_checked += 1;
                    let expected = oracle(graph, q);
                    if served != expected {
                        found.wrong(|| format!("{q:?} answered {served}, BFS says {expected}"));
                    }
                }
            }
        }
        found
    })
}

/// Checks the churn workload: every read must match a generation that may
/// have been live between its send and its reply. Generation `g` may be
/// live from the moment its `RELOAD` was sent until the moment the next
/// generation's `RELOAD` was acknowledged.
pub fn check_churn(lanes: &[LaneLog], generations: &[Generation]) -> Verdict {
    let live_until = |g: usize| generations.get(g + 1).map_or(u64::MAX, |next| next.acked_ns);
    check_lanes(lanes, |lane, requests, stride| {
        let mut found = Found::default();
        // Requests are in send order, so the oldest generation that can
        // still matter only moves forward.
        let mut oldest = 0;
        for i in requests {
            let request = lane.requests[i];
            while live_until(oldest) < request.sent_ns {
                oldest += 1;
            }
            let candidates = (oldest..generations.len())
                .take_while(|&g| generations[g].live_from_ns <= request.recv_ns);
            let first = request.first as usize;
            for k in first..first + request.len as usize {
                let (q, served) = (lane.queries[k], lane.answers[k]);
                if served == FAILED {
                    continue;
                }
                let matched =
                    candidates.clone().find(|&g| reference(&generations[g].flat, q) == served);
                let Some(g) = matched else {
                    found.wrong(|| {
                        format!(
                            "{q:?} answered {served}, which no generation live during the \
                             request ({:?}) gives",
                            candidates.clone().collect::<Vec<_>>()
                        )
                    });
                    continue;
                };
                if i % stride == 0 && k == first {
                    found.oracle_checked += 1;
                    let expected = oracle(&generations[g].graph, q);
                    if served != expected {
                        found.wrong(|| {
                            format!(
                                "{q:?} answered {served}, BFS on generation {g} says {expected}"
                            )
                        });
                    }
                }
            }
        }
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{Request, SLICES};
    use std::sync::Arc;
    use wcsd_core::IndexBuilder;
    use wcsd_graph::generators::paper_figure3;
    use wcsd_graph::GraphBuilder;

    fn lane(entries: &[(Query, u32, u64, u64)]) -> LaneLog {
        LaneLog {
            queries: entries.iter().map(|e| e.0).collect(),
            answers: entries.iter().map(|e| e.1).collect(),
            requests: entries
                .iter()
                .enumerate()
                .map(|(i, e)| Request { first: i as u32, len: 1, sent_ns: e.2, recv_ns: e.3 })
                .collect(),
            slice_answered: [0; SLICES],
            errors: 0,
            refused: 0,
            first_error: None,
        }
    }

    fn flat_of(graph: &Graph) -> Arc<FlatIndex> {
        Arc::new(FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(graph)))
    }

    #[test]
    fn static_check_accepts_right_and_counts_wrong_answers() {
        let graph = paper_figure3();
        let flat = flat_of(&graph);
        // Paper ground truth: Q(2,5,2)=2, Q(2,5,3)=3, Q(2,5,99)=INF.
        let good =
            lane(&[((2, 5, 2), 2, 0, 1), ((2, 5, 3), 3, 1, 2), ((2, 5, 99), UNREACHABLE, 2, 3)]);
        let v = check_static(&[good], &flat, &graph);
        assert!(v.correct(), "{v:?}");
        assert_eq!((v.attempted, v.failed, v.oracle_checked), (3, 0, 3));

        let mut bad =
            lane(&[((2, 5, 2), 2, 0, 1), ((2, 5, 3), 4, 1, 2), ((0, 4, 1), FAILED, 2, 3)]);
        bad.errors = 1;
        let v = check_static(&[bad], &flat, &graph);
        assert!(!v.correct());
        assert_eq!((v.attempted, v.wrong, v.errors, v.failed), (3, 1, 1, 2));
        assert!(v.first_problem.is_some());
    }

    #[test]
    fn churn_check_only_accepts_generations_live_during_the_request() {
        let before = paper_figure3(); // Q(0,4,3) = 4 via 0-1-2-3-4
        let mut b = GraphBuilder::new(6);
        for e in before.edges() {
            b.add_edge(e.u, e.v, e.quality);
        }
        b.add_edge(0, 4, 5); // now Q(0,4,3) = 1
        let after = b.build();
        let generations = vec![
            Generation {
                flat: flat_of(&before),
                graph: before,
                live_from_ns: 0,
                acked_ns: 0,
                bytes: 0,
            },
            Generation {
                flat: flat_of(&after),
                graph: after,
                live_from_ns: 100,
                acked_ns: 200,
                bytes: 0,
            },
        ];
        let q = (0, 4, 3);
        // Old answer before the reload, either answer while it is in flight,
        // new answer after the acknowledgement.
        let ok = lane(&[(q, 4, 10, 20), (q, 4, 90, 150), (q, 1, 120, 180), (q, 1, 250, 260)]);
        assert!(check_churn(&[ok], &generations).correct());
        // The new answer before its RELOAD was sent, the old one after the ack.
        let early = lane(&[(q, 1, 10, 20)]);
        let late = lane(&[(q, 4, 250, 260)]);
        assert_eq!(check_churn(&[early], &generations).wrong, 1);
        assert_eq!(check_churn(&[late], &generations).wrong, 1);
    }
}
