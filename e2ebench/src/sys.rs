//! The two system calls the standard library does not wrap:
//! `getrusage(2)` for whole-process counters and `ppoll(2)` so the
//! single-thread client sleeps until a reply or its next due time.

use crate::probe::Usage;
use std::os::unix::io::RawFd;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (maxrss … nivcsw).
#[repr(C)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Resource usage of this whole process (threads that exited included).
pub fn rusage() -> Option<Usage> {
    let mut ru = RUsage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, and RUSAGE_SELF reads no other process.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return None;
    }
    let tv = |t: &Timeval| Duration::from_micros((t.sec.max(0) * 1_000_000 + t.usec.max(0)) as u64);
    let count = |i: usize| ru.longs[i].max(0) as u64;
    Some(Usage {
        user: tv(&ru.utime),
        sys: tv(&ru.stime),
        ctxsw_vol: count(12),
        ctxsw_invol: count(13),
    })
}

/// Sleeps until one of `fds` is readable (or writable, where its flag is
/// set) or `timeout` passes. Errors, `EINTR` included, just return early:
/// the caller polls its sockets either way.
pub fn wait(fds: &[(RawFd, bool)], timeout: Duration) {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, writable)| PollFd {
            fd,
            events: POLLIN | if writable { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfds` is a live array of `pfds.len()` pollfd structs the
    // kernel may write `revents` into, `ts` outlives the call, and a null
    // signal mask leaves the mask unchanged.
    unsafe {
        ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null());
    }
}
