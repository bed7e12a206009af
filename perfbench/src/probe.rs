//! The benchmark's telemetry probe: one clock read per progress sample.

use std::sync::Mutex;
use std::time::Instant;
use ziv_sim::{ProbeSnapshot, TelemetryProbe};

/// Times the driver's progress windows. The driver publishes a snapshot
/// every 256 accesses; the probe turns consecutive snapshots of one cell
/// into host nanoseconds per simulated access for that window, and keeps
/// the last access index as the cell's served-access count.
#[derive(Debug, Default)]
pub struct WindowProbe {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    last: Option<(Instant, u64)>,
    windows_ns: Vec<f64>,
}

impl WindowProbe {
    /// A probe with no samples.
    pub fn new() -> Self {
        WindowProbe::default()
    }

    /// Forgets the previous cell's position so no window spans two cells.
    pub fn start_cell(&self) {
        self.lock().last = None;
    }

    /// Accesses the current cell has served, counted at the last
    /// snapshot: exact up to the final partial window of < 256 accesses.
    pub fn served(&self) -> u64 {
        self.lock().last.map_or(0, |(_, a)| a)
    }

    /// Takes every window sample recorded so far.
    pub fn take_windows(&self) -> Vec<f64> {
        std::mem::take(&mut self.lock().windows_ns)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("probe state is never left half-updated")
    }
}

impl TelemetryProbe for WindowProbe {
    fn publish_progress(&self, snap: &ProbeSnapshot) {
        let now = Instant::now();
        let mut st = self.lock();
        if let Some((t, a)) = st.last {
            if snap.access_index > a {
                let ns = now.duration_since(t).as_nanos() as f64;
                st.windows_ns.push(ns / (snap.access_index - a) as f64);
            }
        }
        st.last = Some((now, snap.access_index));
    }
}
