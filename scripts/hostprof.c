/* A sampling profiler small enough to read in one sitting, preloaded into
 * a frame-pointer build by scripts/hostprof.sh.
 *
 * ITIMER_PROF delivers SIGPROF after every slice of process CPU time (the
 * kernel rounds the interval up to its tick). The handler walks the frame
 * pointer chain from the interrupted frame and keeps the return addresses
 * in a static buffer; nothing is allocated or written while the program
 * runs. At exit the buffer goes to ./hostprof.samples, after a copy of
 * /proc/self/maps so the script can turn addresses into file offsets:
 *
 *   M <maps line>
 *   S <pc> <return address> <return address> ...
 *
 * Only the main thread's stack is walked (the benchmark is one thread); a
 * sample taken on any other stack keeps its program counter alone.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES 100000
#define MAX_DEPTH 64

static uintptr_t frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile long taken;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    long i = taken;
    if (i >= MAX_SAMPLES) {
        return;
    }
    const mcontext_t *mc = &((const ucontext_t *)ctx)->uc_mcontext;
    uintptr_t pc = (uintptr_t)mc->gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    int n = 0;
    frames[i][n++] = pc;
    if (sp >= stack_lo && sp < stack_hi) {
        /* Each frame holds the caller's frame pointer at [fp] and the
         * return address at [fp + 8]; a chain that leaves the stack, goes
         * backwards or is misaligned ends the walk. */
        while (n < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && (fp & 7) == 0) {
            uintptr_t next = ((const uintptr_t *)fp)[0];
            uintptr_t ret = ((const uintptr_t *)fp)[1];
            if (ret == 0) {
                break;
            }
            frames[i][n++] = ret;
            if (next <= fp) {
                break;
            }
            fp = next;
        }
    }
    depth[i] = (unsigned char)n;
    taken = i + 1;
}

__attribute__((constructor)) static void hostprof_start(void) {
    pthread_attr_t attr;
    void *base;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        if (pthread_attr_getstack(&attr, &base, &size) == 0) {
            stack_lo = (uintptr_t)base;
            stack_hi = (uintptr_t)base + size;
        }
        pthread_attr_destroy(&attr);
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void hostprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen("hostprof.samples", "w");
    if (!out) {
        return;
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            fprintf(out, "M %s", line);
        }
        fclose(maps);
    }
    for (long i = 0; i < taken; i++) {
        fputc('S', out);
        for (int k = 0; k < depth[i]; k++) {
            fprintf(out, " %lx", (unsigned long)frames[i][k]);
        }
        fputc('\n', out);
    }
    fclose(out);
}
