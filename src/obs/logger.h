// Minimal printf-style logger writing to stderr, so tools and benches can
// emit progress/diagnostics without contaminating stdout — benchmark stdout
// must stay machine-parseable (pure JSON / BASELINE lines). One line per
// call, tagged "[I] " or "[E] ".

#ifndef BOXAGG_OBS_LOGGER_H_
#define BOXAGG_OBS_LOGGER_H_

namespace boxagg {
namespace obs {

#if defined(__GNUC__) || defined(__clang__)
#define BOXAGG_PRINTF_ATTR __attribute__((format(printf, 1, 2)))
#else
#define BOXAGG_PRINTF_ATTR
#endif

void LogInfo(const char* fmt, ...) BOXAGG_PRINTF_ATTR;
void LogError(const char* fmt, ...) BOXAGG_PRINTF_ATTR;

#undef BOXAGG_PRINTF_ATTR

}  // namespace obs
}  // namespace boxagg

#endif  // BOXAGG_OBS_LOGGER_H_
