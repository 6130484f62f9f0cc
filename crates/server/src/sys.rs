//! Raw readiness-polling syscalls behind a tiny `cfg(unix)` shim.
//!
//! The workspace vendors no async runtime and no `mio`, so the event loop
//! talks to the kernel directly: `epoll(7)` on Linux, portable `poll(2)`
//! on other unixes, both behind the same [`Poller`] facade. The shim is
//! deliberately minimal — register / modify / deregister / wait — because
//! that is all a single-threaded readiness loop needs:
//!
//! * **Level-triggered.** The loop reads and writes until `WouldBlock`
//!   each time an fd is reported ready, so level semantics cannot lose
//!   events; edge-triggered wakeup coalescing is not worth its bug class
//!   here.
//! * **Tokens, not pointers.** Each registration carries an opaque `u64`
//!   token (the loop packs a slab slot + generation into it); the kernel
//!   hands the token back verbatim in [`PollEvent::token`].
//! * **No allocation per wait.** The syscall writes into a reused buffer;
//!   [`Poller::wait`] translates into the caller's reused `Vec`.
//!
//! The `extern "C"` declarations bind the libc wrappers that `std`
//! already links — no new dependency. Every `unsafe` block carries its
//! proof obligation in a `// SAFETY:` comment
//! (`clippy::undocumented_unsafe_blocks`, denied workspace-wide).

use std::time::Duration;

/// One fd's readiness, as reported by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or a pending accept on a listener).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Peer hung up or the fd is in an error state; the owner should
    /// drain and close.
    pub hangup: bool,
}

/// Converts an optional timeout to the millisecond argument `poll`-family
/// syscalls take: `-1` blocks forever, `0` polls, positive waits. Rounds
/// *up* so a 100µs timer does not busy-spin at 0ms.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            let rounded = if t.subsec_nanos() % 1_000_000 != 0 || ms == 0 {
                ms + 1
            } else {
                ms
            };
            rounded.min(i32::MAX as u128) as i32
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, PollEvent};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0x8_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel ABI struct. x86-64 packs it to 12 bytes (a 32-bit
    /// `events` directly followed by the 64-bit payload); every other
    /// architecture uses natural `repr(C)` alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Linux backend: one `epoll` instance.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a negative return
            // is the error case and is checked before use.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn mask(readable: bool, writable: bool) -> u32 {
            let mut events = EPOLLRDHUP;
            if readable {
                events |= EPOLLIN;
            }
            if writable {
                events |= EPOLLOUT;
            }
            events
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live, properly-initialized EpollEvent for
            // the duration of the call; the kernel only reads it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::mask(readable, writable), token)
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::mask(readable, writable), token)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // Linux < 2.6.9 required a non-null event for DEL; passing one
            // is harmless everywhere.
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            out.clear();
            // SAFETY: `buf` is a live Vec of EpollEvent with capacity
            // `buf.len()`; the kernel writes at most `maxevents` entries
            // and the return value bounds how many we read back.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // EINTR: spurious wakeup, not a failure
                }
                return Err(err);
            }
            for ev in self.buf.iter().take(n as usize) {
                // Copy out of the (potentially packed) ABI struct before
                // taking references.
                let events = ev.events;
                let data = ev.data;
                out.push(PollEvent {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            // A full buffer means more events may be pending: grow so the
            // next wait drains them in one call.
            if n as usize == self.buf.len() {
                let grown = self.buf.len() * 2;
                self.buf.resize(grown, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd was returned by epoll_create1 and is closed
            // exactly once, here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{timeout_ms, PollEvent};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Portable backend: the interest set lives in user space and is
    /// handed to `poll(2)` on every wait. O(n) per wait, which is fine
    /// for the non-Linux development targets this path serves.
    pub struct Poller {
        interest: BTreeMap<RawFd, (u64, bool, bool)>,
        fds: Vec<PollFd>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                interest: BTreeMap::new(),
                fds: Vec::new(),
            })
        }

        pub fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.interest.insert(fd, (token, readable, writable));
            Ok(())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.interest.insert(fd, (token, readable, writable));
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.interest.remove(&fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            out.clear();
            self.fds.clear();
            for (&fd, &(_, readable, writable)) in &self.interest {
                let mut events = 0i16;
                if readable {
                    events |= POLLIN;
                }
                if writable {
                    events |= POLLOUT;
                }
                self.fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
            }
            // SAFETY: `fds` is a live Vec of PollFd of length `len()`;
            // poll only writes the `revents` field of those entries.
            let n = unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for pfd in &self.fds {
                if pfd.revents == 0 {
                    continue;
                }
                if let Some(&(token, _, _)) = self.interest.get(&pfd.fd) {
                    out.push(PollEvent {
                        token,
                        readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                        writable: pfd.revents & POLLOUT != 0,
                        hangup: pfd.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

pub use imp::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_events_carry_the_token() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(b.as_raw_fd(), 0xDEAD_BEEF, true, false)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending: a zero timeout returns empty.
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.is_empty());

        a.write_all(&[1]).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 0xDEAD_BEEF);
        assert!(events[0].readable);
    }

    #[test]
    fn modify_switches_interest_and_deregister_silences() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();
        a.write_all(&[1]).unwrap();

        // Read interest off: the pending byte no longer reports.
        poller.modify(b.as_raw_fd(), 7, false, false).unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.iter().all(|e| !e.readable));

        // Write interest on: an idle socket is writable immediately.
        poller.modify(b.as_raw_fd(), 7, false, true).unwrap();
        poller
            .wait(Some(Duration::from_secs(5)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        poller.deregister(b.as_raw_fd()).unwrap();
        poller.wait(Some(Duration::ZERO), &mut events).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(10))), 10);
        assert_eq!(
            timeout_ms(Some(Duration::from_millis(10) + Duration::from_nanos(1))),
            11
        );
    }
}
