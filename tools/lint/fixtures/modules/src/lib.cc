// Fixture: a library source; its includes keep headers alive. Never compiled.
#include "lib_only.h"
