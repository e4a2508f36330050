/* LD_PRELOAD SIGPROF sampler: every TICK_US microseconds of process CPU time,
 * record the interrupted PC and a backtrace() into a fixed buffer; at exit
 * write /proc/self/maps and the stacks to SIGPROF_OUT (default sigprof.out).
 * Read the result with report.py.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define TICK_US 4000
#define MAX_SAMPLES 65536
#define DEPTH 48

/* frames[0] is the interrupted PC; the rest is what backtrace() saw, which
 * starts inside this handler and reaches that PC two or three frames in. */
static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static int taken, lost;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&lost, 1, __ATOMIC_RELAXED);
        return;
    }
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    frames[i][0] = (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    frames[i][0] = (void *)uc->uc_mcontext.pc;
#else
#error "sigprof: add the interrupted-PC register of this architecture"
#endif
    depth[i] = 1 + backtrace(&frames[i][1], DEPTH - 1);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, TICK_US}, {0, TICK_US}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "samples %d lost %d\n", n, lost);
    for (int i = 0; i < n; i++) {
        fputs("stack", out);
        for (int d = 0; d < depth[i]; d++)
            fprintf(out, " %lx", (unsigned long)frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
