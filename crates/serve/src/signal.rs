//! SIGTERM/SIGINT → a wake-up the server can block on.
//!
//! [`install`] creates a socket pair and points the SIGTERM and SIGINT
//! handlers at its write end: a delivery writes one byte, which is
//! async-signal-safe. The returned [`Termination`] holds the read end;
//! [`Termination::wait`] blocks until that byte lands, so a thread
//! parked in it (started by [`crate::serve`]) wakes exactly when a
//! signal arrives and drains the registry — which in turn wakes the
//! accept loop. Nothing polls.
//!
//! `signal(2)` and `write(2)` are declared directly against the C
//! runtime — the dependency policy keeps the tree to the sanctioned
//! vendored crates, so no `libc` crate — which is also why this is the
//! one module in the workspace that needs `unsafe`.

use std::io::{self, Read};
use std::os::fd::IntoRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI32, Ordering};

/// Write end of the signal socket pair; `-1` until [`install`].
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    // `write(2)` on a non-blocking socket is async-signal-safe; a full
    // buffer (many signals, nobody reading) just drops the byte, and
    // one unread byte already means "drain".
    let fd = WAKE_FD.load(Ordering::Acquire);
    if fd >= 0 {
        let byte = 1u8;
        // SAFETY: `fd` is the write end leaked by `install`, open for
        // the life of the process; the buffer is one valid byte.
        unsafe {
            write(fd, &byte, 1);
        }
    }
}

extern "C" {
    // `sighandler_t signal(int signum, sighandler_t handler)` — both
    // the parameter and the returned previous handler are pointer-sized.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// The read end of the signal socket pair.
#[derive(Debug)]
pub struct Termination(UnixStream);

impl Termination {
    /// Blocks until SIGTERM or SIGINT arrives. Returns `false` only if
    /// the socket fails, in which case no signal will ever be seen.
    #[must_use]
    pub fn wait(mut self) -> bool {
        self.0.read_exact(&mut [0u8]).is_ok()
    }
}

/// Installs the SIGTERM/SIGINT handler and returns the end to wait on.
/// Call it once per process: a second call re-points the handler, and
/// the earlier [`Termination`] never wakes.
///
/// # Errors
/// If the socket pair cannot be created.
pub fn install() -> io::Result<Termination> {
    let (read_end, write_end) = UnixStream::pair()?;
    write_end.set_nonblocking(true)?;
    // The write end lives as long as the process: the handler may run
    // at any moment, so it is never closed.
    WAKE_FD.store(write_end.into_raw_fd(), Ordering::Release);
    // SAFETY: `on_signal` matches the `sighandler_t` ABI and performs
    // only an atomic load and a `write(2)`, both async-signal-safe; the
    // returned previous handler is deliberately discarded (we never
    // restore it).
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    Ok(Termination(read_end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handler_wakes_the_waiting_end_like_a_real_delivery_would() {
        let term = install().expect("socket pair");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(term.wait()));
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "woke before any signal"
        );
        // Call the handler directly: raising a real SIGTERM would kill
        // the whole test harness if installation ever regressed. The
        // real delivery is covered by the CLI tests.
        on_signal(SIGTERM);
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(true));
    }
}
