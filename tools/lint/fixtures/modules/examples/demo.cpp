// Fixture: an example. Never compiled.
#include "used.h"
