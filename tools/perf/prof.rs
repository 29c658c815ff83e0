//! SIGPROF sampler (x86_64 Linux, glibc).  `prof::start()` first thing in
//! `main`, `prof::dump()` before it returns; writes `$PROF_OUT` (one line of
//! hex frame addresses per sample, leaf first) and `$PROF_OUT.maps`.
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const DEPTH: usize = 24;
const SLOTS: usize = 1 << 22;
static mut BUF: [usize; SLOTS] = [0; SLOTS];
static NEXT: AtomicUsize = AtomicUsize::new(0);

#[repr(C)]
struct Sigaction { handler: usize, mask: [u64; 16], flags: i32, restorer: usize }
#[repr(C)]
struct Itimerval { interval: [i64; 2], value: [i64; 2] }
extern "C" {
    fn sigaction(sig: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
}

extern "C" fn on_prof(_sig: i32, _info: *mut u8, ctx: *mut u8) {
    // ucontext_t.uc_mcontext.gregs starts at byte 40: REG_RBP = 10, REG_RSP = 15, REG_RIP = 16.
    let gregs = unsafe { ctx.add(40) } as *const usize;
    let (mut pc, mut fp, sp) = unsafe { (*gregs.add(16), *gregs.add(10), *gregs.add(15)) };
    let start = NEXT.fetch_add(DEPTH, Relaxed);
    if start + DEPTH > SLOTS {
        return;
    }
    let buf = unsafe { &mut *std::ptr::addr_of_mut!(BUF) };
    for slot in &mut buf[start..start + DEPTH] {
        *slot = pc;
        // Follow the frame-pointer chain only while it stays on this stack.
        if fp < sp || fp >= sp + (8 << 20) || fp % 8 != 0 {
            break;
        }
        let (next_fp, ret) = unsafe { (*(fp as *const usize), *((fp + 8) as *const usize)) };
        if next_fp <= fp {
            break;
        }
        (pc, fp) = (ret, next_fp);
    }
}

pub fn start() {
    let handler = on_prof as *const () as usize;
    let act = Sigaction { handler, mask: [0; 16], flags: 4 | 0x1000_0000, restorer: 0 };
    let timer = Itimerval { interval: [0, 4000], value: [0, 4000] }; // 250 Hz of CPU time
    unsafe {
        sigaction(27, &act, std::ptr::null_mut()); // SIGPROF, SA_SIGINFO | SA_RESTART
        setitimer(2, &timer, std::ptr::null_mut()); // ITIMER_PROF
    }
}

pub fn dump() {
    let stop = Itimerval { interval: [0, 0], value: [0, 0] };
    unsafe { setitimer(2, &stop, std::ptr::null_mut()) };
    let Ok(path) = std::env::var("PROF_OUT") else { return };
    let buf = unsafe { &*std::ptr::addr_of!(BUF) };
    let mut out = String::new();
    for sample in buf[..NEXT.load(Relaxed).min(SLOTS)].chunks(DEPTH) {
        let frames: Vec<String> = sample.iter().take_while(|&&a| a != 0).map(|a| format!("{a:x}")).collect();
        out.push_str(&frames.join(" "));
        out.push('\n');
    }
    std::fs::write(&path, out).unwrap();
    std::fs::copy("/proc/self/maps", format!("{path}.maps")).unwrap();
}
