//! I/O stage stitching: a [`TraceSink`] that joins each command's
//! `Submit → Doorbell → DeviceCompletion → ServiceCompletion` events on
//! `(dev, queue, cid)` and records the time between consecutive events into
//! one histogram per stage (Dapper-style span decomposition, Sigelman et al.,
//! 2010, applied to the simulated NVMe pipeline).
//!
//! A command id is live from its `Submit` until its `ServiceCompletion`,
//! after which the slot may be reused by a later submit on the same queue.
//! One doorbell publishes every submit on its queue that no earlier doorbell
//! covered, so submits wait in a per-queue list until the next doorbell.

use agile_trace::{LatencyHistogram, TraceEvent, TraceEventKind, TraceSink};
use std::collections::HashMap;
use std::sync::Mutex;

/// Timestamps (simulated cycles) one live command has reached so far.
struct Span {
    submit: u64,
    doorbell: Option<u64>,
    device: Option<u64>,
}

/// Everything the stitcher has accumulated.
#[derive(Default, Clone)]
pub struct StageStats {
    /// `Submit` events seen (commands written into an SQ slot).
    pub submits: u64,
    /// `Doorbell` events seen (SQ tail writes).
    pub doorbells: u64,
    /// `ServiceCompletion` events seen (completions reaped by the AGILE
    /// service or a polling BaM thread).
    pub completions: u64,
    /// Completion events that matched no live command.
    pub unmatched: u64,
    /// Submit → doorbell, in cycles.
    pub queue: LatencyHistogram,
    /// Doorbell → device completion (CQE posted), in cycles.
    pub device: LatencyHistogram,
    /// Device completion → service completion (reap), in cycles.
    pub reap: LatencyHistogram,
}

#[derive(Default)]
struct State {
    live: HashMap<(u32, u16, u16), Span>,
    awaiting_doorbell: HashMap<(u32, u16), Vec<u16>>,
    stats: StageStats,
}

/// The stitching sink. Install it with `HostBuilder::trace_sink`.
#[derive(Default)]
pub struct StageStitcher {
    state: Mutex<State>,
}

impl StageStitcher {
    /// A copy of the accumulated statistics.
    pub fn stats(&self) -> StageStats {
        self.state
            .lock()
            .expect("stitcher lock poisoned by a panicking recorder")
            .stats
            .clone()
    }
}

impl TraceSink for StageStitcher {
    fn record(&self, ev: TraceEvent) {
        let mut guard = self
            .state
            .lock()
            .expect("stitcher lock poisoned by a panicking recorder");
        let st = &mut *guard;
        let key = (ev.dev, ev.queue, ev.cid);
        match ev.kind {
            TraceEventKind::Submit => {
                st.stats.submits += 1;
                st.live.insert(
                    key,
                    Span {
                        submit: ev.at,
                        doorbell: None,
                        device: None,
                    },
                );
                st.awaiting_doorbell
                    .entry((ev.dev, ev.queue))
                    .or_default()
                    .push(ev.cid);
            }
            TraceEventKind::Doorbell => {
                st.stats.doorbells += 1;
                let covered = st
                    .awaiting_doorbell
                    .remove(&(ev.dev, ev.queue))
                    .unwrap_or_default();
                for cid in covered {
                    if let Some(span) = st.live.get_mut(&(ev.dev, ev.queue, cid)) {
                        span.doorbell = Some(ev.at);
                        st.stats.queue.record(ev.at.saturating_sub(span.submit));
                    }
                }
            }
            TraceEventKind::DeviceCompletion => match st.live.get_mut(&key) {
                Some(span) => {
                    if let Some(doorbell) = span.doorbell {
                        st.stats.device.record(ev.at.saturating_sub(doorbell));
                    }
                    span.device = Some(ev.at);
                }
                None => st.stats.unmatched += 1,
            },
            TraceEventKind::ServiceCompletion => {
                st.stats.completions += 1;
                match st.live.remove(&key) {
                    Some(Span {
                        device: Some(device),
                        ..
                    }) => st.stats.reap.record(ev.at.saturating_sub(device)),
                    Some(_) => {}
                    None => st.stats.unmatched += 1,
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, at: u64, dev: u32, queue: u16, cid: u16) -> TraceEvent {
        TraceEvent::new(kind, at).target(dev, 0).queue(queue, cid)
    }

    #[test]
    fn one_doorbell_covers_every_pending_submit_on_its_queue() {
        use TraceEventKind::*;
        let s = StageStitcher::default();
        // Three submits on (dev 0, queue 1); the third rings one doorbell
        // for all of them. A submit on another queue stays uncovered.
        s.record(ev(Submit, 10, 0, 1, 0));
        s.record(ev(Submit, 20, 0, 1, 1));
        s.record(ev(Submit, 25, 0, 2, 0));
        s.record(ev(Submit, 30, 0, 1, 2));
        s.record(ev(Doorbell, 30, 0, 1, 2));
        let st = s.stats();
        assert_eq!((st.submits, st.doorbells), (4, 1));
        assert_eq!(st.queue.count(), 3);
        assert_eq!(st.queue.min(), Some(0));
        assert_eq!(st.queue.max(), Some(20));
        assert_eq!(st.queue.mean(), 10.0);
    }

    #[test]
    fn cid_reuse_after_completion_starts_a_fresh_span() {
        use TraceEventKind::*;
        let s = StageStitcher::default();
        // First life of cid 5 on (dev 3, queue 0).
        s.record(ev(Submit, 100, 3, 0, 5));
        s.record(ev(Doorbell, 100, 3, 0, 5));
        s.record(ev(DeviceCompletion, 400, 3, 0, 5));
        s.record(ev(ServiceCompletion, 450, 3, 0, 5));
        // Second life of the same cid, with different stage lengths.
        s.record(ev(Submit, 1_000, 3, 0, 5));
        s.record(ev(Doorbell, 1_004, 3, 0, 5));
        s.record(ev(DeviceCompletion, 1_104, 3, 0, 5));
        s.record(ev(ServiceCompletion, 1_105, 3, 0, 5));
        // The same cid on another device is a different command.
        s.record(ev(Submit, 1_000, 4, 0, 5));
        s.record(ev(Doorbell, 1_000, 4, 0, 5));
        let st = s.stats();
        assert_eq!(st.completions, 2);
        assert_eq!(st.unmatched, 0);
        assert_eq!(st.queue.count(), 3);
        assert_eq!((st.queue.min(), st.queue.max()), (Some(0), Some(4)));
        assert_eq!(st.device.count(), 2);
        assert_eq!((st.device.min(), st.device.max()), (Some(100), Some(300)));
        assert_eq!(st.reap.count(), 2);
        assert_eq!((st.reap.min(), st.reap.max()), (Some(1), Some(50)));
    }

    #[test]
    fn completions_without_a_submit_are_counted_as_unmatched() {
        use TraceEventKind::*;
        let s = StageStitcher::default();
        s.record(ev(DeviceCompletion, 5, 0, 0, 9));
        s.record(ev(ServiceCompletion, 6, 0, 0, 9));
        s.record(ev(CacheHit, 7, 0, 0, 0));
        let st = s.stats();
        assert_eq!((st.unmatched, st.completions), (2, 1));
        assert_eq!(st.reap.count(), 0);
    }
}
